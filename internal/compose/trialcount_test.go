package compose_test

import (
	"context"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/workloads"
)

// TestSectionedTrialCounts pins the sectioned campaign's trial-count
// advantage at equal site coverage (coverage 1, uncapped sections) on
// every evaluation workload. Both counts are analytic, so they are
// exact and machine-independent: the sectioned total is the per-section
// allocation Σ_s ceil(P_s/Dmin_s), the monolithic equivalent
// ceil(P/Dmin) with the global minimum site depth. Any change to a
// workload, the section partition or the allocation shows here as a
// count that moved, and the aggregate reduction must stay at least 5×.
func TestSectionedTrialCounts(t *testing.T) {
	want := map[string]struct{ sectioned, mono int64 }{
		"CoMD":  {4529, 771550},
		"HPCCG": {291092, 3238806},
		"AMG":   {7007, 3733195},
		"FFT":   {2552, 256401},
		"IS":    {86076, 323684},
	}
	if len(want) != len(workloads.Names) {
		t.Fatalf("counts recorded for %d workloads, %d evaluation workloads exist", len(want), len(workloads.Names))
	}
	var totalSec, totalMono int64
	for _, name := range workloads.Names {
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: no recorded trial counts", name)
		}
		spec := workloads.MustGet(name, 1)
		m, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := fault.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		c := &fault.Campaign{
			Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 1,
			Sections: true, Coverage: 1,
		}
		prep, err := c.Prepare(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp := prep.SectionPlan()
		if int64(sp.Total) != w.sectioned || sp.MonoTrials != w.mono {
			t.Errorf("%s: %d sectioned vs %d monolithic-equivalent trials, want %d vs %d",
				name, sp.Total, sp.MonoTrials, w.sectioned, w.mono)
		}
		totalSec += int64(sp.Total)
		totalMono += sp.MonoTrials
	}
	if ratio := float64(totalMono) / float64(totalSec); ratio < 5 {
		t.Errorf("aggregate trial reduction %.2f× (%d sectioned vs %d monolithic-equivalent), want ≥ 5×",
			ratio, totalSec, totalMono)
	}
}
