package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ipas/internal/core"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/svm"
	"ipas/internal/workloads"
)

// runOptions are one workload process's settings.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spans    string
	dir      string // scratch directory for journals, removed at exit
}

// size scales every workload: fullSize is the benchmark, and the test
// runs a tiny size through the same code. A workload's work is a fixed
// number of units, each one campaign (or one workflow) on its own seed.
type size struct {
	remoteUnits   int // remote-fft units
	remoteTrials  int // trials of one remote-fft unit
	remoteShards  int // shards of one remote-fft unit
	sectionUnits  int // sectioned-fft units
	sectionMax    int // sectioned-fft per-section cap (0 = the full allocation)
	workflowUnits int // workflow-is units
	workflow      core.Options
	matchRemote   int  // leading remote-fft trials re-run locally
	pinned        bool // compare seed 1's first unit with pinned.json
}

var fullSize = size{
	remoteUnits:   4,
	remoteTrials:  160,
	remoteShards:  2,
	sectionUnits:  3,
	sectionMax:    128,
	workflowUnits: 2,
	workflow: core.Options{
		Samples: 100, Grid: svm.QuickGrid(), TopN: 2, EvalTrials: 40,
	},
	matchRemote: 100,
	pinned:      true,
}

// runDeadline bounds one workload process, so that it exits well within
// three minutes even on a stalled machine: units and checks stop when
// it passes and the run reports what it measured.
const runDeadline = 150 * time.Second

// bench is one workload run: its settings, what it measured, and the
// operations it attempted and failed.
type bench struct {
	ctx     context.Context
	name    string
	seed    int64
	window  time.Duration
	sz      size
	workers int
	dir     string
	tr      *tracer // nil in an untraced run

	vals      map[string]float64
	samples   map[string][]float64 // per-unit observations, reported as their median
	attempted int
	failed    int
	passes    int // passes measured, the last maybe partial

	traced float64 // summed traced unit walls
	rt     runtimeSnap
	hits   int64
	misses int64
	mix    trialMix
}

func runWorkload(w *workload, o runOptions, sz size) *bench {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{
		ctx:     ctx,
		name:    w.name,
		seed:    o.seed,
		window:  time.Duration(o.seconds * float64(time.Second)),
		sz:      sz,
		workers: runtime.NumCPU(),
		dir:     o.dir,
		vals:    map[string]float64{},
		samples: map[string][]float64{},
	}
	if o.traced {
		b.tr = newTracer(fmt.Sprintf("%s-seed%d", w.name, o.seed))
	}
	if err := w.run(b); err != nil {
		b.fail("%s: %v", w.name, err)
	}
	b.finish()
	return b
}

func (b *bench) set(name string, v float64)     { b.vals[name] = v }
func (b *bench) observe(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// check counts one correctness check; a failed one is printed and
// counted as a failed operation, and the run goes on.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "ipasbench: check failed: "+format+"\n", args...)
	}
}

func (b *bench) fail(format string, args ...any) { b.check(false, format, args...) }

// unitFunc runs unit u once, in pass pass and scope sc, and returns the
// wall time of its timed part and the trials it completed. A unit's
// seeds derive from (seed, u) alone, so every pass of it, traced or
// not, runs the same trials.
type unitFunc func(u, pass int, sc scope) (wall time.Duration, trials int, err error)

func (b *bench) unitSeed(u int) int64 { return b.seed*1_000_003 + int64(u) }

// measure runs units 0..units-1 in passes, round robin, each unit after
// one cold set-up, until the next unit would overrun the window; every
// unit runs at least once.
//
// The reference loop (host.go) is timed before the set-up, between the
// set-up and the unit, and after the unit. Each set-up and each unit is
// normalised by the mean of the two reference times around it, which
// gives its time at the reference host speed. setup_s is the median of
// the normalised set-ups, which are spread over the whole run. A unit
// does the same work in every pass, so its time is the median of its
// passes; norm_wall_s sums the units' times, the run's fixed work, and
// norm_trials_per_s divides the units' trials by it. host.setup_s and
// host.wall_s are the same statistics of the raw times.
//
// A traced run follows every unit with a traced twin, or precedes it on
// odd passes, so that whatever one leaves warm for the other cancels
// out. trace.overhead_frac compares the twins' summed times with the
// untraced ones, and only the twins feed the per-layer metrics.
func (b *bench) measure(pg *program, units int, run unitFunc) {
	norm := make([][]float64, units)  // per unit and pass, normalised seconds
	raw := make([][]float64, units)   // per unit and pass, wall seconds
	tnorm := make([][]float64, units) // the traced twins' normalised seconds
	trials := make([]int, units)
	var setups, rawSetups, refs []float64
	defer func() {
		var wall, rawWall, twall float64
		n := 0
		for u := range norm {
			if len(norm[u]) > 0 {
				wall, rawWall, n = wall+median(norm[u]), rawWall+median(raw[u]), n+trials[u]
			}
			if len(tnorm[u]) > 0 {
				twall += median(tnorm[u])
			}
		}
		b.set("setup_s", median(setups))
		b.set("norm_wall_s", wall)
		b.set("norm_trials_per_s", ratio(float64(n), wall))
		b.set("host.setup_s", median(rawSetups))
		b.set("host.wall_s", rawWall)
		b.set("host.ref_ms", 1e3*median(refs))
		if b.tr != nil {
			b.set("trace.overhead_frac", ratio(twall, wall)-1)
		}
	}()
	begin := time.Now()
	var step time.Duration // the last unit's time, with its set-up, twin and references
	for pass := 0; ; pass++ {
		for u := 0; u < units; u++ {
			if b.ctx.Err() != nil || pass > 0 && time.Since(begin)+step > b.window {
				return
			}
			t0 := time.Now()
			// Start each set-up from a collected heap, as in a fresh
			// process, rather than from whatever the last unit left.
			runtime.GC()
			ref0 := refTime()
			s0 := time.Now()
			if _, _, err := b.setupOnce(pg); err != nil {
				b.fail("%s set-up before unit %d: %v", b.name, u, err)
				return
			}
			setup := time.Since(s0)
			ref1 := refTime()
			setups = append(setups, setup.Seconds()*refScale(ref0, ref1))
			rawSetups = append(rawSetups, setup.Seconds())
			var (
				twall time.Duration
				err   error
			)
			if b.tr != nil && pass%2 == 1 {
				if twall, err = b.tracedUnit(u, pass, run); err != nil {
					return
				}
			}
			wall, n, err := run(u, pass, scope{})
			if err != nil {
				b.fail("%s unit %d: %v", b.name, u, err)
				return
			}
			if b.tr != nil && pass%2 == 0 {
				if twall, err = b.tracedUnit(u, pass, run); err != nil {
					return
				}
			}
			ref2 := refTime()
			k := refScale(ref1, ref2)
			norm[u] = append(norm[u], wall.Seconds()*k)
			raw[u] = append(raw[u], wall.Seconds())
			if b.tr != nil {
				tnorm[u] = append(tnorm[u], twall.Seconds()*k)
			}
			refs = append(refs, ref0.Seconds(), ref1.Seconds(), ref2.Seconds())
			trials[u] = n
			b.passes = pass + 1
			step = time.Since(t0)
		}
	}
}

// tracedUnit runs unit u traced under a new root span and accounts its
// resources to the per-layer metrics.
func (b *bench) tracedUnit(u, pass int, run unitFunc) (time.Duration, error) {
	before, hits, misses := readRuntime(), fault.SharedGoldenCache.Hits(), fault.SharedGoldenCache.Misses()
	root := b.tr.begin(0, "bench.unit")
	wall, _, err := run(u, pass, scope{b.tr, root.id()})
	root.end()
	after := readRuntime()
	b.rt.cpu += after.cpu - before.cpu
	b.rt.gcCPU += after.gcCPU - before.gcCPU
	b.rt.alloc += after.alloc - before.alloc
	b.hits += fault.SharedGoldenCache.Hits() - hits
	b.misses += fault.SharedGoldenCache.Misses() - misses
	if err != nil {
		b.fail("%s traced unit %d: %v", b.name, u, err)
		return 0, err
	}
	b.traced += wall.Seconds()
	return wall, nil
}

// program is a workload's fault-injection target: a built-in workload
// at input 1, compiled once for the timed units.
type program struct {
	spec     *workloads.Spec
	prog     *interp.Program
	prep     *fault.Prepared // a cold Prepare of prog, for its golden run and population
	sections bool
}

// setup loads the workload's program through one cold set-up, which
// setup_s leaves out, and warms up: it fills the shared golden cache and
// the interpreter's pooled rank memory for every worker, so the first
// unit does not pay first-use costs later units skip.
func (b *bench) setup(name string, sections bool) (*program, error) {
	spec, err := workloads.Get(name, 1)
	if err != nil {
		return nil, err
	}
	pg := &program{spec: spec, sections: sections}
	if pg.prog, pg.prep, err = b.setupOnce(pg); err != nil {
		return nil, err
	}
	if _, err := b.campaign(pg, b.seed).RunContext(b.ctx, 2*b.workers); err != nil {
		return nil, err
	}
	return pg, nil
}

// setupOnce runs one cold set-up of the workload's program, timing its
// steps: sci compile, lowering, and Prepare's golden run with the cache
// bypassed.
func (b *bench) setupOnce(pg *program) (*interp.Program, *fault.Prepared, error) {
	root := b.tr.begin(0, "bench.setup")
	defer root.end()
	sc := scope{b.tr, root.id()}
	t0 := time.Now()
	sp := sc.begin("lang.compile")
	m, err := pg.spec.Compile()
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	sp = sc.begin("interp.lower")
	prog, err := fault.Compile(m)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	c := b.campaign(&program{spec: pg.spec, prog: prog, sections: pg.sections}, b.seed)
	c.NoGoldenCache = true
	sp = sc.begin("fault.prepare")
	prep, err := c.Prepare(b.ctx)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	b.observe("lang.compile_ms", 1e3*t1.Sub(t0).Seconds())
	b.observe("interp.lower_ms", 1e3*t2.Sub(t1).Seconds())
	b.observe("fault.prepare_ms", 1e3*t3.Sub(t2).Seconds())
	b.observe("interp.golden_minstr_per_s", float64(prep.Golden.TotalDyn)/1e6/t3.Sub(t2).Seconds())
	b.set("lang.static_instrs", float64(m.NumInstrs()))
	return prog, prep, nil
}

// campaign is the workload's fault-injection campaign.
func (b *bench) campaign(pg *program, seed int64) *fault.Campaign {
	c := &fault.Campaign{Prog: pg.prog, Verify: pg.spec.Verify, Config: pg.spec.BaseConfig(1), Seed: seed, Workers: b.workers}
	if pg.sections {
		c.Sections, c.Coverage, c.MaxPerSection = true, 1, b.sz.sectionMax
	}
	return c
}

// tally counts a campaign's trials as attempted operations and its
// failed or pending trials as failed ones, and checks that its outcome
// counts partition its trials.
func (b *bench) tally(res *fault.CampaignResult) {
	b.attempted += len(res.Trials)
	b.failed += res.Failed + res.Pending
	counted := 0
	for _, c := range res.Counts {
		counted += c
	}
	b.check(counted == res.Completed && res.Completed+res.Failed+res.Pending == len(res.Trials),
		"%s: outcome counts sum to %d over %d completed of %d trials", b.name, counted, res.Completed, len(res.Trials))
}

// trialMix accumulates the outcome and shape of the completed trials of
// a run's traced units, each unit counted once.
type trialMix struct {
	n, masked, soc, symptom, overrun int
	latency                          float64
	prefixN                          int
	prefix                           float64
}

// add folds in a campaign's trials. population is the plain campaign's
// sampling population; 0 (sectioned plans index within a section)
// leaves the injection prefix unmeasured.
func (m *trialMix) add(res *fault.CampaignResult, population int64) {
	for _, tr := range res.Trials {
		if tr.Status != fault.TrialCompleted {
			continue
		}
		m.n++
		switch tr.Outcome {
		case fault.OutcomeMasked:
			m.masked++
		case fault.OutcomeSOC:
			m.soc++
		case fault.OutcomeSymptom:
			m.symptom++
		}
		m.latency += float64(tr.Latency)
		if tr.Latency > res.GoldenDyn {
			m.overrun++
		}
		if population > 0 {
			m.prefixN++
			m.prefix += float64(tr.Index) / float64(population)
		}
	}
}

// pin is a workload's expected outcome of unit 0 for seed 1.
type pin struct {
	Counts       [fault.NumOutcomes]int `json:"counts"`
	Slowdown     float64                `json:"protected_slowdown,omitempty"`
	SOCReduction float64                `json:"soc_reduction_pct,omitempty"`
}

//go:embed pinned.json
var pinnedJSON []byte

// checkPinned compares unit 0 of seed 1 with pinned.json.
func (b *bench) checkPinned(got pin) {
	if !b.sz.pinned || b.seed != 1 {
		return
	}
	var pins map[string]pin
	err := json.Unmarshal(pinnedJSON, &pins)
	want, ok := pins[b.name]
	b.check(err == nil && ok && want == got, "%s: unit 0 of seed 1 gave %+v, pinned.json has %+v", b.name, got, want)
}

// finish derives the reported metrics from the run's observations.
func (b *bench) finish() {
	m := &b.mix
	b.set("fault.masked_frac", ratio(float64(m.masked), float64(m.n)))
	b.set("fault.soc_frac", ratio(float64(m.soc), float64(m.n)))
	b.set("fault.symptom_frac", ratio(float64(m.symptom), float64(m.n)))
	b.set("fault.overrun_frac", ratio(float64(m.overrun), float64(m.n)))
	b.set("fault.post_inject_minstr", ratio(m.latency/1e6, float64(m.n)))
	b.set("fault.inject_prefix_frac", ratio(m.prefix, float64(m.prefixN)))
	if b.tr != nil {
		trial := b.tr.durations("fault.run_trial")
		b.set("fault.trial_ms_p50", 1e3*median(trial))
		b.set("fault.trial_ms_p90", 1e3*percentile(trial, 90))
		b.set("fault.trial_samples", float64(len(trial)))
		b.set("fault.golden_hits", float64(b.hits))
		b.set("fault.golden_misses", float64(b.misses))
		b.set("runtime.cpu_s", b.rt.cpu)
		b.set("runtime.gc_cpu_frac", ratio(b.rt.gcCPU, b.rt.cpu))
		b.set("runtime.alloc_mb", b.rt.alloc/1e6)
		b.set("runtime.peak_rss_mb", peakRSSMB())
	}
	for name, xs := range b.samples {
		b.set(name, median(xs))
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	for name := range b.vals {
		b.check(declared[name], "%s: metric %q is not declared", b.name, name)
	}
}

// result is the run's output: the end-to-end metrics, or the per-layer
// ones for a traced run, each declared metric exactly once.
func (b *bench) result() result {
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
	}
	res := result{Correct: b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: b.vals[d.name], Unit: d.unit}
	}
	return res
}
