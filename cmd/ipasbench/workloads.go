package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ipas/internal/compose"
	"ipas/internal/core"
	"ipas/internal/fault"
)

// workload is one named benchmark input. Why each exists, and which
// layer it stresses, is in README.md.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloadList = []workload{
	{"remote-fft", runRemote},
	{"sectioned-fft", runSectioned},
	{"workflow-is", runWorkflow},
}

func lookupWorkload(name string) *workload {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

// completions records when trials finish, to find stalls: the gaps
// between consecutive completions of one unit.
type completions struct {
	mu   sync.Mutex
	last time.Time
	gaps []float64
}

func (c *completions) reset() {
	c.mu.Lock()
	c.last = time.Time{}
	c.mu.Unlock()
}

func (c *completions) mark() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if !c.last.IsZero() {
		c.gaps = append(c.gaps, now.Sub(c.last).Seconds())
	}
	c.last = now
}

// runSectioned is sectioned-fft: the sectioned engine with per-section
// journals and the composed estimate, on the same program and trial
// length as remote-fft.
func runSectioned(b *bench) error {
	pg, err := b.setup("FFT", true)
	if err != nil {
		return err
	}
	var (
		first *fault.SectionResult
		gaps  completions
	)
	b.measure(pg, b.sz.sectionUnits, func(u, pass int, sc scope) (time.Duration, int, error) {
		c := b.campaign(pg, b.unitSeed(u))
		c.Progress = func(done, total, failed, deadlocked int) { gaps.mark() }
		dir := filepath.Join(b.dir, fmt.Sprintf("sections-%d-%d-%t", u, pass, sc.traced()))
		defer os.RemoveAll(dir)
		gaps.reset()
		t0 := time.Now()
		sp := sc.begin("fault.prepare")
		p, err := c.Prepare(b.ctx)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = sc.begin("fault.run_sections")
		res, err := p.RunSections(b.ctx, dir)
		sp.end()
		if res == nil || (err != nil && res.Failed+res.Pending == 0) {
			return 0, 0, err
		}
		sp = sc.begin("compose.from_section_result")
		outs := compose.FromSectionResult(res)
		sp.end()
		sp = sc.begin("compose.whole")
		dist, err := compose.Whole(outs)
		sp.end()
		wall := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}

		b.tally(res.CampaignResult)
		b.check(math.Abs(dist.Sum()-1) < 1e-9, "sectioned-fft: composed distribution sums to %v", dist.Sum())
		short := 0
		for i, st := range res.Stats {
			if outs[i].Trials != st.Trials {
				short++
			}
		}
		b.check(short == 0, "sectioned-fft: %d sections did not run their full allocation", short)
		switch {
		case sc.traced():
			if pass == 0 {
				b.mix.add(res.CampaignResult, 0)
			}
			b.observe("fault.journal_bytes", dirBytes(dir))
			b.observe("fault.sections", float64(len(res.Stats)))
			b.observe("fault.section_trials", float64(p.SectionTotal()))
		case u == 0 && pass == 0:
			first = res
		}
		return wall, res.Completed, nil
	})
	if b.tr != nil {
		b.set("compose.whole_ms", 1e3*median(b.tr.durations("compose.whole")))
		b.set("fault.completion_gap_ms_p99", 1e3*percentile(gaps.gaps, 99))
	}
	if first != nil {
		b.checkPinned(pin{Counts: first.Counts})
	}
	return nil
}

// runWorkflow is workflow-is: the whole IPAS workflow on IS — collection,
// both grid searches, protection and evaluation of every variant.
func runWorkflow(b *bench) error {
	pg, err := b.setup("IS", false)
	if err != nil {
		return err
	}
	app := &core.App{Module: pg.prog.Module(), Verify: pg.spec.Verify, Config: pg.spec.BaseConfig(1)}
	var (
		first *core.Result
		gaps  completions
	)
	b.measure(pg, b.sz.workflowUnits, func(u, pass int, sc scope) (time.Duration, int, error) {
		var stages stageLog
		opts := b.sz.workflow
		opts.Seed = b.unitSeed(u)
		opts.Controls = &core.CampaignControls{Workers: b.workers, TrainWorkers: b.workers, Progress: stages.progress}
		sp := sc.begin("core.run")
		t0 := time.Now()
		res, err := core.RunContext(b.ctx, app, opts)
		sp.end()
		end := time.Now()
		if err != nil {
			return 0, 0, err
		}
		trials := 0
		for _, cr := range append([]*fault.CampaignResult{res.Data.Campaign}, coverages(res)...) {
			b.tally(cr)
			trials += cr.Completed
		}
		best := res.Best(core.PolicyIPAS)
		b.check(best != nil && best.Slowdown >= 1 && !math.IsNaN(best.SOCReductionPct),
			"workflow-is: no usable best IPAS variant")
		if best == nil {
			return end.Sub(t0), trials, nil
		}
		switch {
		case sc.traced():
			collect, eval, rest := stages.record(sc.under(sp), t0, end, &gaps)
			b.observe("core.collect_s", collect)
			b.observe("core.eval_s", eval)
			b.observe("core.unattributed_s", rest)
			if pass == 0 {
				b.mix.add(res.Data.Campaign, pg.prep.Population)
			}
			b.observe("svm.train_ipas_s", res.TrainIPASTime.Seconds())
			b.observe("svm.train_baseline_s", res.TrainBaselineTime.Seconds())
			b.observe("svm.grid_points", float64(stages.gridPoints()))
			b.observe("svm.train_samples", float64(len(res.Data.X)))
			b.observe("dup.protect_ms", 1e3*res.ProtectTime.Seconds())
			b.observe("dup.duplicated_pct", best.Stats.DuplicatedPercent())
			b.observe("dup.checks", float64(best.Stats.Checks))
			b.observe("core.protected_slowdown", best.Slowdown)
			b.observe("core.soc_reduction_pct", best.SOCReductionPct)
			b.observe("core.eval_trials", float64(trials-res.Data.Campaign.Completed))
		case u == 0 && pass == 0:
			first = res
		}
		return end.Sub(t0), trials, nil
	})
	if b.tr != nil {
		b.set("fault.completion_gap_ms_p99", 1e3*percentile(gaps.gaps, 99))
	}
	if first != nil {
		best := first.Best(core.PolicyIPAS)
		b.checkPinned(pin{Counts: first.Data.Campaign.Counts, Slowdown: best.Slowdown, SOCReduction: best.SOCReductionPct})
	}
	return nil
}

func coverages(res *core.Result) []*fault.CampaignResult {
	var out []*fault.CampaignResult
	for _, v := range res.AllVariants() {
		out = append(out, v.Coverage)
	}
	return out
}

// stageLog collects the workflow's CampaignControls.Progress events.
type stageLog struct {
	mu     sync.Mutex
	events []stageEvent
}

type stageEvent struct {
	stage string
	at    time.Time
	total int
}

func (l *stageLog) progress(stage string, done, total, failed, deadlocked int) {
	l.mu.Lock()
	l.events = append(l.events, stageEvent{stage, time.Now(), total})
	l.mu.Unlock()
}

// record turns the events into stage spans under sc and returns the
// seconds spent collecting, evaluating, and after the last event. A
// stage runs from the previous stage's last event (the workflow's start
// for the first) to its own last event, so an evaluation stage includes
// its variant's protection and golden run; the time after the last
// event until the workflow returned is unattributed. Gaps between
// consecutive trial completions of a campaign stage go to gaps.
func (l *stageLog) record(sc scope, start, end time.Time, gaps *completions) (collect, eval, rest float64) {
	prev := start
	for i := 0; i < len(l.events); {
		j := i
		for j+1 < len(l.events) && l.events[j+1].stage == l.events[i].stage {
			j++
		}
		stage, last := l.events[i].stage, l.events[j].at
		sc.add(stageSpan(stage), prev, last)
		switch {
		case stage == "collect":
			collect += last.Sub(prev).Seconds()
		case strings.HasPrefix(stage, "eval "):
			eval += last.Sub(prev).Seconds()
		}
		if !strings.HasPrefix(stage, "train ") {
			for k := i + 1; k <= j; k++ {
				gaps.gaps = append(gaps.gaps, l.events[k].at.Sub(l.events[k-1].at).Seconds())
			}
		}
		prev = last
		i = j + 1
	}
	sc.add("core.unattributed", prev, end)
	return collect, eval, end.Sub(prev).Seconds()
}

// gridPoints is the grid size the IPAS training stage reported.
func (l *stageLog) gridPoints() int {
	n := 0
	for _, e := range l.events {
		if e.stage == "train IPAS" {
			n = max(n, e.total)
		}
	}
	return n
}

// stageSpan names a workflow stage's span by the layer that does its
// work: collection is a fault campaign, training is the SVM grid search,
// and each evaluation is the workflow's own protect-and-evaluate step.
func stageSpan(stage string) string {
	switch {
	case stage == "collect":
		return "fault.collect"
	case strings.HasPrefix(stage, "train "):
		return "svm." + strings.ToLower(strings.ReplaceAll(stage, " ", "_"))
	}
	return "core." + stage
}

// sameTrials reports whether two trial lists encode to the same JSON
// bytes — the form journals and the coordinator store them in.
func sameTrials(a, b []fault.Trial) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
