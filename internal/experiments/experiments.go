// Package experiments regenerates every table and figure of the
// paper's evaluation (§6): Table 3 (code sizes), Figure 5 (coverage),
// Figure 6 (SOC reduction vs slowdown), Figure 7 (duplicated
// instructions), Figure 8 (MPI scalability), Figure 9 (input
// variation), Table 4 (best configurations), Table 5 (inputs), and
// Table 6 (training/duplication time). Results are rendered as ASCII
// tables with the same rows and series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"ipas/internal/campaign"
	"ipas/internal/core"
	"ipas/internal/svm"
	"ipas/internal/workloads"
)

// Params scales the experiment suite.
type Params struct {
	// Workloads restricts the suite (default: all five).
	Workloads []string
	// Opts drives the per-workload IPAS workflow.
	Opts core.Options
	// Ranks is the MPI process ladder for Figure 8.
	Ranks []int
	// InputTrials is the per-input evaluation campaign size (Fig 9).
	InputTrials int
	// MaxInput caps the Figure 9 input ladder (4 = the full Table 5).
	MaxInput int
}

// Quick returns laptop-scale parameters preserving the suite's shape.
func Quick() Params {
	return Params{
		Workloads:   workloads.Names,
		Opts:        core.QuickOptions(),
		Ranks:       []int{1, 2, 4, 8},
		InputTrials: 100,
		MaxInput:    3,
	}
}

// Paper returns the paper-scale parameters (2,500 training samples,
// 500 grid points, 1,024 evaluation injections, inputs up to level 4).
func Paper() Params {
	return Params{
		Workloads:   workloads.Names,
		Opts:        core.PaperOptions(),
		Ranks:       []int{1, 2, 4, 8, 16},
		InputTrials: 1024,
		MaxInput:    4,
	}
}

// Smoke returns minimal parameters for tests.
func Smoke(names ...string) Params {
	if len(names) == 0 {
		names = []string{"FFT"}
	}
	return Params{
		Workloads: names,
		Opts: core.Options{
			Samples:    150,
			Grid:       svm.LogGrid(1, 1e5, 4, 1e-5, 1, 3),
			TopN:       3,
			EvalTrials: 60,
			Seed:       5,
		},
		Ranks:       []int{1, 2},
		InputTrials: 50,
		MaxInput:    2,
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render draws the table in aligned ASCII.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values for
// plotting the paper's figures with external tools.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Suite caches the expensive per-workload workflow runs so that the
// figures and tables that share them (Fig 5/6/7, Table 4/6) reuse one
// training campaign.
type Suite struct {
	Params Params

	mu      sync.Mutex
	ctx     context.Context
	apps    map[string]*core.App
	results map[string]*core.Result
}

// NewSuite builds a suite for the given parameters.
func NewSuite(p Params) *Suite {
	if len(p.Workloads) == 0 {
		p.Workloads = workloads.Names
	}
	if p.MaxInput < 1 {
		p.MaxInput = 1
	}
	return &Suite{
		Params:  p,
		apps:    map[string]*core.App{},
		results: map[string]*core.Result{},
	}
}

// App returns (building lazily) the workload's App at input level 1.
func (s *Suite) App(name string) (*core.App, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if app, ok := s.apps[name]; ok {
		return app, nil
	}
	spec, err := workloads.Get(name, 1)
	if err != nil {
		return nil, err
	}
	m, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	app := &core.App{Module: m, Verify: spec.Verify, Config: spec.BaseConfig(1)}
	s.apps[name] = app
	return app, nil
}

// context returns the context installed by RunContext/AllContext
// (Background when the suite is driven through Run/All).
func (s *Suite) context() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// setContext installs ctx for the generators of one Run/All call. The
// suite serializes experiment runs through its caller; concurrent
// RunContext calls with different contexts are not supported.
func (s *Suite) setContext(ctx context.Context) {
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
}

// Result returns (running lazily) the full workflow result for a
// workload at input level 1.
func (s *Suite) Result(name string) (*core.Result, error) {
	s.mu.Lock()
	if r, ok := s.results[name]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	r, err := core.RunContext(s.context(), app, s.optsFor(name))
	if err != nil {
		return nil, fmt.Errorf("experiments: workflow for %s: %w", name, err)
	}
	s.mu.Lock()
	s.results[name] = r
	s.mu.Unlock()
	return r, nil
}

// optsFor scopes one workload's resilience controls: progress lines
// are prefixed with the workload ("HPCCG: eval IPAS-1") and journals
// land in a per-workload checkpoint subdirectory so stage names cannot
// collide across workloads.
func (s *Suite) optsFor(name string) core.Options {
	opts := s.Params.Opts
	cc := opts.Controls
	if cc == nil {
		return opts
	}
	scoped := *cc
	if cc.Progress != nil {
		report := cc.Progress
		scoped.Progress = func(stage string, done, total, failed, deadlocked int) {
			report(name+": "+stage, done, total, failed, deadlocked)
		}
	}
	if cc.Checkpoint != nil {
		scoped.Checkpoint = cc.Checkpoint.Sub(name)
	}
	if cc.Remote != nil && cc.RemoteSpec == nil {
		// Dispatch each workflow's collection campaign — the suite's
		// dominant injection cost on the unmodified workload — to the
		// coordinator; every other stage (training, protected-variant
		// evaluation) stays local because protected modules do not
		// round-trip through a campaign spec.
		scoped.RemoteSpec = func(stage string) *campaign.Spec {
			if stage != "collect" {
				return nil
			}
			return &campaign.Spec{Workload: name, Input: 1}
		}
	}
	opts.Controls = &scoped
	return opts
}

// All runs every experiment and returns the tables in paper order.
func (s *Suite) All() ([]*Table, error) {
	return s.AllContext(context.Background())
}

// AllContext is All with cancellation threaded into every workflow and
// campaign the generators run.
func (s *Suite) AllContext(ctx context.Context) ([]*Table, error) {
	s.setContext(ctx)
	var out []*Table
	for _, e := range experimentTable {
		t, err := e.gen(s)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Run runs one experiment by ID.
func (s *Suite) Run(id string) (*Table, error) {
	return s.RunContext(context.Background(), id)
}

// RunContext runs one experiment by ID (case-insensitive) under ctx:
// cancellation aborts the underlying workflows and campaigns,
// returning ctx's error.
func (s *Suite) RunContext(ctx context.Context, id string) (*Table, error) {
	s.setContext(ctx)
	for _, e := range experimentTable {
		if strings.ToLower(id) == e.id {
			return e.gen(s)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want %s)", id, strings.Join(IDs(), "|"))
}

// experimentTable lists every experiment in paper order, with the
// generator that builds its table.
var experimentTable = []struct {
	id  string
	gen func(*Suite) (*Table, error)
}{
	{"table3", (*Suite).Table3},
	{"table5", (*Suite).Table5},
	{"fig5", (*Suite).Fig5},
	{"fig6", (*Suite).Fig6},
	{"fig7", (*Suite).Fig7},
	{"table4", (*Suite).Table4},
	{"fig8", (*Suite).Fig8},
	{"fig9", (*Suite).Fig9},
	{"table6", (*Suite).Table6},
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2s(v float64) string { return fmt.Sprintf("%.2f", v) }
