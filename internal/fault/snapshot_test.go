package fault_test

import (
	"context"
	"encoding/json"
	"testing"

	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/workloads"
)

// TestSnapshotTrialsMatchFullRuns is the fault-level identity check of
// fork-from-golden snapshots: for every workload at input 1 and every
// built-in error model, the trials Prepared.RunTrial resumes from
// golden-run snapshots are JSON-identical — outcome, site, effective
// bit and mask, latency, deadlock text, attempts, and so the journal
// bytes — to trials classified from a full run from instruction zero.
// The sectioned leg does the same for a sectioned campaign's trials,
// spread over its sections, with the early-masked exit armed on both
// sides; it runs one trial fewer per model to stay inside the
// race-detector budget of `make errmodel-smoke`. A fully duplicated FFT
// covers Detected outcomes. The variants run in parallel: they share
// only process-wide tables (the golden-run cache, ir's interned pointer
// types), which are safe for concurrent use.
func TestSnapshotTrialsMatchFullRuns(t *testing.T) {
	type variant struct {
		workload string
		dup      bool
	}
	var variants []variant
	for _, name := range append(append([]string{}, workloads.Names...), workloads.ConvergenceNames...) {
		variants = append(variants, variant{workload: name})
	}
	trials := 4
	if testing.Short() {
		variants, trials = variants[3:5], 3 // FFT and IS
	}
	variants = append(variants, variant{workload: "FFT", dup: true})
	for _, v := range variants {
		name := v.workload
		if v.dup {
			name += "+dup"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := workloads.MustGet(v.workload, 1)
			m, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if v.dup {
				if _, err := dup.FullDuplication(m); err != nil {
					t.Fatal(err)
				}
			}
			prog, err := fault.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			detected := 0
			models := fault.BuiltinModels()
			for mi, model := range models {
				for _, sectioned := range []bool{false, true} {
					// A small hang factor keeps overrunning trials short;
					// the budget is still the one both runs share.
					c := &fault.Campaign{Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 77, Model: model, HangFactor: 2}
					label := model.Name()
					if sectioned {
						c.Sections, c.Coverage, c.MaxPerSection = true, 1, 2
						label += "/sectioned"
					}
					p, err := c.Prepare(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					plans := p.Plans(trials)
					if sectioned {
						// Spread trials-1 plans over the sections instead
						// of taking the first section's, each model at its
						// own positions, so the models together cover
						// (trials-1)·len(models) evenly spaced ones.
						all, n := p.Plans(p.SectionTotal()), (trials-1)*len(models)
						plans = nil
						for k := mi; k < n; k += len(models) {
							plans = append(plans, all[k*len(all)/n])
						}
					}
					for i, plan := range plans {
						got := p.RunTrial(context.Background(), i, plan)
						want, err := p.FullRunTrial(context.Background(), plan)
						if err != nil {
							t.Fatalf("%s trial %d: full run: %v", label, i, err)
						}
						gj, _ := json.Marshal(got)
						wj, _ := json.Marshal(want)
						if string(gj) != string(wj) {
							t.Fatalf("%s trial %d (section %d, index %d): resumed %s, full run %s", label, i, plan.Section, plan.Index, gj, wj)
						}
						if got.Outcome == fault.OutcomeDetected {
							detected++
						}
					}
					if p.Snapshots().Len() == 0 {
						t.Fatalf("%s: no snapshots captured", label)
					}
				}
			}
			if v.dup && detected == 0 {
				t.Error("duplicated FFT produced no Detected trial")
			}
		})
	}
}
