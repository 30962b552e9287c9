package interp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/workloads"
)

// TestLoopsAgreeOnWorkloads runs every workload at 1, 2 and 4 ranks on
// both execution loops — the uninstrumented fast loop (a plain run) and
// the instrumented loop (site counting, with an unreachable instruction
// budget) — and requires trap, outputs, print log, per-rank dynamic
// counts and injectable populations to agree. The single-rank sectioned
// capture run, which also takes the instrumented loop, must agree as
// well, and its per-section populations must partition the injectable
// population. The armed leg (armedLoopsAgree) checks the move from the
// instrumented loop to the fast one that armed trials make.
func TestLoopsAgreeOnWorkloads(t *testing.T) {
	names := append(append([]string(nil), workloads.Names...), workloads.ConvergenceNames...)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec := workloads.MustGet(name, 1)
			m, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			m.AssignSiteIDs()
			p, err := interp.Compile(m, fault.Injectable)
			if err != nil {
				t.Fatal(err)
			}
			for _, ranks := range []int{1, 2, 4} {
				cfg := spec.BaseConfig(ranks)
				fast := interp.Run(p, cfg)
				if fast.Trap != interp.TrapNone {
					t.Fatalf("%d ranks: fast loop trapped: %v (%s)", ranks, fast.Trap, fast.TrapMsg)
				}
				full := cfg
				full.MaxInstrs = math.MaxInt64
				full.CountSites = true
				compareResults(t, fmt.Sprintf("%d ranks", ranks), fast, interp.Run(p, full))
				if ranks > 1 {
					continue
				}
				capture := sectionedCapture(t, p, cfg)
				compareResults(t, "sectioned capture", fast, capture)
				var pop int64
				for _, n := range capture.Sections.Pops {
					pop += n
				}
				if pop != fast.Injectable[0] {
					t.Errorf("section populations sum to %d, injectable population is %d", pop, fast.Injectable[0])
				}
				armedLoopsAgree(t, p, cfg, fast, capture.Sections)
			}
		})
	}
}

// armedLoopsAgree runs armed single-rank trials of p twice: as a
// campaign runs them (resumed from golden-run snapshots, leaving the
// instrumented loop once the flip, or the injected section instance's
// early-masked check, is behind them) and with site counting, which
// keeps the run on the instrumented loop from instruction zero to the
// end. Every Result field but SiteCounts must agree. The plans are
// transient ones of every built-in model shape, plain and
// section-targeted with the early-masked exit armed; one plan whose
// budget ends after its flip, so that TrapBudget fires on the fast
// loop; and one sticky plan, whose re-corruption must keep it on the
// instrumented loop.
func armedLoopsAgree(t *testing.T, p *interp.Program, cfg interp.Config, golden *interp.Result, trace *interp.SectionTrace) {
	t.Helper()
	// A small hang factor keeps overrunning trials short.
	cfg.MaxInstrs = 2 * golden.TotalDyn
	secCfg := cfg
	secCfg.Sections = &interp.SectionConfig{}
	plain := interp.CaptureSnapshots(context.Background(), p, cfg, golden.TotalDyn)
	sectioned := interp.CaptureSnapshots(context.Background(), p, secCfg, golden.TotalDyn)
	if plain.Len() == 0 || sectioned.Len() == 0 {
		t.Fatalf("captures recorded %d plain and %d sectioned snapshots", plain.Len(), sectioned.Len())
	}
	secCfg.Sections = &interp.SectionConfig{Golden: trace}
	var populated []int32
	for s, n := range trace.Pops {
		if n > 0 {
			populated = append(populated, int32(s))
		}
	}

	both := func(label string, cfg interp.Config, snaps *interp.Snapshots) (shipped, counted *interp.Result) {
		t.Helper()
		cfg.Resume = snaps
		shipped = interp.Run(p, cfg)
		if !shipped.Injected {
			t.Fatalf("%s: plan %+v did not inject", label, *cfg.Fault)
		}
		cfg.Resume = nil
		cfg.CountSites = true
		counted = interp.Run(p, cfg)
		sameResult(t, label, counted, shipped)
		return shipped, counted
	}

	rng := rand.New(rand.NewSource(int64(golden.TotalDyn)))
	pop := golden.Injectable[0]
	for _, model := range fault.BuiltinModels() {
		if model == fault.Sticky {
			continue
		}
		plan := &interp.FaultPlan{Index: rng.Int63n(pop)}
		model.Draw(rng, plan)
		c := cfg
		c.Fault = plan
		both(model.Name()+"/plain", c, plain)

		sec := &interp.FaultPlan{Section: populated[rng.Intn(len(populated))]}
		sec.Index = rng.Int63n(trace.Pops[sec.Section])
		model.Draw(rng, sec)
		c = secCfg
		c.Fault = sec
		both(model.Name()+"/sectioned", c, sectioned)
	}

	// A budget that ends halfway between the flip and the end of the
	// run traps on the fast loop at the count the full loop traps at.
	for k := 0; ; k++ {
		if k == 16 {
			t.Fatal("no plan ran more than two instructions past its flip")
		}
		c := cfg
		c.Fault = &interp.FaultPlan{Index: rng.Int63n(pop), Bit: rng.Intn(64)}
		c.Resume = plain
		res := interp.Run(p, c)
		if res.TotalDyn-res.InjectedAt <= 2 {
			continue
		}
		c.MaxInstrs = (res.InjectedAt + res.TotalDyn) / 2
		if shipped, _ := both("budget", c, plain); shipped.Trap != interp.TrapBudget || shipped.TotalDyn != c.MaxInstrs+1 {
			t.Fatalf("budget %d after a flip at %d: trap %v at %d, want %v at %d",
				c.MaxInstrs, res.InjectedAt, shipped.Trap, shipped.TotalDyn, interp.TrapBudget, c.MaxInstrs+1)
		}
		break
	}

	// A sticky plan whose site runs again after the flip would lose its
	// later corruptions on the fast loop.
	for k := 0; ; k++ {
		if k == 16 {
			t.Fatal("no sticky plan re-corrupted its site")
		}
		plan := &interp.FaultPlan{Index: rng.Int63n(pop)}
		fault.Sticky.Draw(rng, plan)
		c := cfg
		c.Fault = plan
		if _, counted := both("sticky", c, plain); counted.Corruptions > 1 {
			break
		}
	}
}

// sectionedCapture runs p once with section tracking and capture armed
// and returns the result, whose Sections holds the boundary trace.
func sectionedCapture(t *testing.T, p *interp.Program, cfg interp.Config) *interp.Result {
	t.Helper()
	cfg.Sections = &interp.SectionConfig{}
	cfg.CountSites = true
	res := interp.Run(p, cfg)
	if res.Trap != interp.TrapNone {
		t.Fatalf("sectioned run trapped: %v (%s)", res.Trap, res.TrapMsg)
	}
	if res.Sections == nil {
		t.Fatal("sectioned run captured no trace")
	}
	return res
}

// sameResult requires every Result field but SiteCounts to agree,
// floating-point outputs bit for bit.
func sameResult(t *testing.T, label string, want, got *interp.Result) {
	t.Helper()
	compareResults(t, label, want, got)
	w, g := *want, *got
	w.SiteCounts, g.SiteCounts = nil, nil
	w.OutputF, g.OutputF, w.PrintLog, g.PrintLog = nil, nil, nil, nil
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: full loop and as-shipped runs differ:\n%+v\n%+v", label, w, g)
	}
}

func compareResults(t *testing.T, label string, a, b *interp.Result) {
	t.Helper()
	if a.Trap != b.Trap {
		t.Fatalf("%s: trap: %v vs %v", label, a.Trap, b.Trap)
	}
	if a.TotalDyn != b.TotalDyn {
		t.Errorf("%s: TotalDyn: %d vs %d", label, a.TotalDyn, b.TotalDyn)
	}
	if !reflect.DeepEqual(a.DynInstrs, b.DynInstrs) {
		t.Errorf("%s: DynInstrs: %v vs %v", label, a.DynInstrs, b.DynInstrs)
	}
	if !reflect.DeepEqual(a.Injectable, b.Injectable) {
		t.Errorf("%s: Injectable: %v vs %v", label, a.Injectable, b.Injectable)
	}
	if len(a.OutputF) != len(b.OutputF) {
		t.Fatalf("%s: OutputF length: %d vs %d", label, len(a.OutputF), len(b.OutputF))
	}
	for i := range a.OutputF {
		if math.Float64bits(a.OutputF[i]) != math.Float64bits(b.OutputF[i]) {
			t.Errorf("%s: OutputF[%d]: %x vs %x", label, i,
				math.Float64bits(a.OutputF[i]), math.Float64bits(b.OutputF[i]))
		}
	}
	if !reflect.DeepEqual(a.OutputI, b.OutputI) {
		t.Errorf("%s: OutputI differs", label)
	}
	if len(a.PrintLog) != len(b.PrintLog) {
		t.Fatalf("%s: PrintLog length: %d vs %d", label, len(a.PrintLog), len(b.PrintLog))
	}
	for i := range a.PrintLog {
		if math.Float64bits(a.PrintLog[i]) != math.Float64bits(b.PrintLog[i]) {
			t.Errorf("%s: PrintLog[%d] differs", label, i)
		}
	}
}
