package interp_test

import (
	"math"
	"reflect"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/workloads"
)

// TestLoopsAgreeOnWorkloads runs every workload at 1, 2 and 4 ranks on
// both execution loops — the uninstrumented fast loop (a plain run) and
// the instrumented loop (an unreachable instruction budget plus site
// counting) — and requires trap, outputs, print log, per-rank dynamic
// counts and injectable populations to agree. The single-rank sectioned
// capture run, which also takes the instrumented loop, must agree as
// well, and its per-section populations must partition the injectable
// population.
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
				compareResults(t, fast, interp.Run(p, full))
				if ranks > 1 {
					continue
				}
				capture := sectionedCapture(t, p, cfg)
				compareResults(t, fast, capture)
				var pop int64
				for _, n := range capture.Sections.Pops {
					pop += n
				}
				if pop != fast.Injectable[0] {
					t.Errorf("section populations sum to %d, injectable population is %d", pop, fast.Injectable[0])
				}
			}
		})
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

func compareResults(t *testing.T, a, b *interp.Result) {
	t.Helper()
	if a.Trap != b.Trap {
		t.Fatalf("trap: %v vs %v", a.Trap, b.Trap)
	}
	if a.TotalDyn != b.TotalDyn {
		t.Errorf("TotalDyn: %d vs %d", a.TotalDyn, b.TotalDyn)
	}
	if !reflect.DeepEqual(a.DynInstrs, b.DynInstrs) {
		t.Errorf("DynInstrs: %v vs %v", a.DynInstrs, b.DynInstrs)
	}
	if !reflect.DeepEqual(a.Injectable, b.Injectable) {
		t.Errorf("Injectable: %v vs %v", a.Injectable, b.Injectable)
	}
	if len(a.OutputF) != len(b.OutputF) {
		t.Fatalf("OutputF length: %d vs %d", len(a.OutputF), len(b.OutputF))
	}
	for i := range a.OutputF {
		if math.Float64bits(a.OutputF[i]) != math.Float64bits(b.OutputF[i]) {
			t.Errorf("OutputF[%d]: %x vs %x", i,
				math.Float64bits(a.OutputF[i]), math.Float64bits(b.OutputF[i]))
		}
	}
	if !reflect.DeepEqual(a.OutputI, b.OutputI) {
		t.Errorf("OutputI differs")
	}
	if len(a.PrintLog) != len(b.PrintLog) {
		t.Fatalf("PrintLog length: %d vs %d", len(a.PrintLog), len(b.PrintLog))
	}
	for i := range a.PrintLog {
		if math.Float64bits(a.PrintLog[i]) != math.Float64bits(b.PrintLog[i]) {
			t.Errorf("PrintLog[%d] differs", i)
		}
	}
}
