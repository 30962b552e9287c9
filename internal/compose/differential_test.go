package compose_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipas/internal/compose"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/workloads"
)

// The differential harness: for every mini-app, run a monolithic
// campaign and a sectioned campaign against the same binary and
// compare the composed whole-program outcome distribution against the
// monolithic estimate. Both are unbiased estimators of the same
// distribution, so they must agree within sampling noise.
//
// agreementBound is the documented L∞ agreement bound. With ~120
// monolithic trials (per-outcome stderr ≈ 0.046) and per-section
// budgets capped at 40 (population-weighted composed stderr ≈ 0.07 in
// the worst case), three combined standard errors stay under 0.25.
// Seeds are fixed, so the comparison is deterministic — the bound
// guards against estimator bugs, not flakiness.
const (
	agreementBound = 0.25
	monoTrials     = 120
	maxPerSection  = 40
)

func runDifferential(t *testing.T, name string) {
	t.Helper()
	spec := workloads.MustGet(name, 1)
	m, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	mono := &fault.Campaign{Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 42}
	monoRes, err := mono.RunContext(ctx, monoTrials)
	if err != nil {
		t.Fatalf("monolithic campaign: %v", err)
	}

	sec := &fault.Campaign{
		Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 42,
		Sections: true, Coverage: 1, MaxPerSection: maxPerSection,
	}
	prep, err := sec.Prepare(ctx)
	if err != nil {
		t.Fatalf("sectioned prepare: %v", err)
	}
	secRes, err := prep.RunSections(ctx, "")
	if err != nil {
		t.Fatalf("sectioned campaign: %v", err)
	}

	composed, err := compose.Whole(compose.FromSectionResult(secRes))
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if s := composed.Sum(); s < 0.999 || s > 1.001 {
		t.Errorf("composed mass = %v, want 1", s)
	}
	monoD := fromCampaignResult(monoRes)
	diff := maxDiff(composed, monoD)
	t.Logf("%s: composed=%v monolithic=%v L∞=%.3f sectioned-trials=%d mono-equivalent=%d",
		name, composed, monoD, diff, secRes.Plan.Total, secRes.Plan.MonoTrials)
	if diff > agreementBound {
		t.Errorf("composed and monolithic distributions disagree: L∞ = %.3f > %.2f", diff, agreementBound)
	}
	// The analytic equal-coverage comparison must favor sectioning on
	// every mini-app (TestSectionedTrialCounts pins the exact counts
	// and the aggregate ≥5× bound; here we only require it helps).
	if secRes.Plan.MonoTrials <= int64(secRes.Plan.Total) {
		t.Errorf("sectioning does not reduce trials: %d sectioned vs %d monolithic",
			secRes.Plan.Total, secRes.Plan.MonoTrials)
	}
}

// fromCampaignResult renders a monolithic campaign's completed-trial
// proportions as a Distribution (the differential reference).
func fromCampaignResult(r *fault.CampaignResult) compose.Distribution {
	var d compose.Distribution
	for o := range d {
		d[o] = r.Proportion(fault.Outcome(o))
	}
	return d
}

// maxDiff returns the L∞ distance between two distributions — the
// agreement metric the differential harness bounds.
func maxDiff(a, b compose.Distribution) float64 {
	var m float64
	for o := range a {
		diff := a[o] - b[o]
		if diff < 0 {
			diff = -diff
		}
		if diff > m {
			m = diff
		}
	}
	return m
}

func TestDifferentialComposedVsMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is long; run without -short")
	}
	for _, name := range workloads.Names {
		t.Run(name, func(t *testing.T) { runDifferential(t, name) })
	}
}

// editSrc is a controlled multi-function program for the edit tests:
// @scale sets a factor, the @accum loop sums i·factor for i < 20, and
// @clip caps the sum at 100 before @main prints it. At factor 1 the sum
// is 190, so most corruptions inside the loop still leave it above the
// cap and are masked by @clip.
const editSrc = `
builtin @out_f64(i64, f64) void

func @scale() f64 {
entry:
  %s = fadd f64 0.0, 1.0
  ret f64 %s
}

func @accum(i64 %n, f64 %s) f64 {
entry:
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i1, %loop]
  %acc = phi f64 [0.0, %entry], [%acc1, %loop]
  %xf = sitofp i64 %i to f64
  %t = fmul f64 %xf, %s
  %acc1 = fadd f64 %acc, %t
  %i1 = add i64 %i, 1
  %c = icmp lt i64 %i1, %n
  condbr %c, %loop, %exit
exit:
  ret f64 %acc1
}

func @clip(f64 %x) f64 {
entry:
  %c = fcmp gt f64 %x, 100.0
  condbr %c, %hi, %lo
hi:
  ret f64 100.0
lo:
  ret f64 %x
}

func @main() void {
entry:
  %n = add i64 20, 0
  %s = call f64 @scale()
  %a = call f64 @accum(i64 %n, f64 %s)
  %r = call f64 @clip(f64 %a)
  call void @out_f64(i64 0, f64 %r)
  ret void
}
`

// editTrials is the plain campaigns' trial count in the edit tests.
const editTrials = 24

// editCampaign compiles src into a campaign, sectioned or plain, with
// an exact-match verifier.
func editCampaign(t *testing.T, src string, sections bool) *fault.Campaign {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	m.AssignSiteIDs()
	prog, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return &fault.Campaign{
		Prog: prog,
		Verify: func(golden, faulty *interp.Result) bool {
			return slices.Equal(golden.OutputF, faulty.OutputF)
		},
		Seed: 7, Sections: sections, Coverage: 2, MaxPerSection: 16,
	}
}

// editPrepare prepares src's campaign.
func editPrepare(t *testing.T, src string, sections bool) *fault.Prepared {
	t.Helper()
	p, err := editCampaign(t, src, sections).Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runEdit runs c to completion, journaling into dir when dir is not
// "": a sectioned campaign through RunSections into dir, a plain one
// through Campaign.Journal on dir's one file.
func runEdit(c *fault.Campaign, dir string) (*fault.CampaignResult, error) {
	ctx := context.Background()
	if c.Sections {
		prep, err := c.Prepare(ctx)
		if err != nil {
			return nil, err
		}
		res, err := prep.RunSections(ctx, dir)
		if res == nil {
			return nil, err
		}
		return res.CampaignResult, err
	}
	if dir != "" {
		j, err := fault.OpenJournal(filepath.Join(dir, "trials.jsonl"))
		if err != nil {
			return nil, err
		}
		defer j.Close()
		c.Journal = j
	}
	return c.RunContext(ctx, editTrials)
}

// TestEditedProgramRefusesOldJournal pins the rule that no trial
// journaled by one program is restored into an edited one. A trial
// records the program's end-to-end outcome, so an edit changes trials
// that never injected into the edited code: @clip's cap, which runs
// after the @accum loop, decides whether a corrupted sum is masked, and
// @scale, which runs before it, decides the sum the loop starts from.
// Both edits keep every dynamic count and leave the loop's section
// unchanged, so neither the golden run nor the section fingerprints
// can tell the programs apart. Run against the old program's journal,
// sectioned or plain, the edited program must be refused with
// ErrCampaignMismatch and leave the journal untouched; run into a fresh
// journal it must equal a fresh run, trial for trial.
func TestEditedProgramRefusesOldJournal(t *testing.T) {
	for _, edit := range []struct{ name, from, to string }{
		{"after the section", "fcmp gt f64 %x, 100.0", "fcmp gt f64 %x, 1e300"},
		{"before the section", "fadd f64 0.0, 1.0", "fadd f64 0.0, 0.1"},
	} {
		if !strings.Contains(editSrc, edit.from) {
			t.Fatalf("%s: edit pattern %q not in the source", edit.name, edit.from)
		}
		edited := strings.Replace(editSrc, edit.from, edit.to, 1)
		for _, sections := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/sections=%t", edit.name, sections), func(t *testing.T) {
				dir := t.TempDir()
				old, err := runEdit(editCampaign(t, editSrc, sections), dir)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := runEdit(editCampaign(t, edited, sections), "")
				if err != nil {
					t.Fatal(err)
				}

				// The premise: only the program fingerprint tells the two
				// campaigns apart, yet trials the old journal would have
				// restored — for a sectioned campaign, those of sections
				// whose fingerprint the edit left alone — change outcome.
				po, pe := editPrepare(t, editSrc, sections), editPrepare(t, edited, sections)
				mo, me := po.Meta(len(old.Trials)), pe.Meta(len(old.Trials))
				if mo.ProgramFP == me.ProgramFP {
					t.Fatal("the edit left the program fingerprint unchanged")
				}
				me.ProgramFP = mo.ProgramFP
				if mo != me || len(fresh.Trials) != len(old.Trials) {
					t.Fatalf("the edit changed more than the program: %+v vs %+v", mo, me)
				}
				// restorable marks the trials an old journal would hand
				// the edited program: every trial of a plain campaign, and
				// a sectioned one's in sections the edit left alone.
				restorable := make([]bool, len(old.Trials))
				for k := range restorable {
					restorable[k] = !sections
				}
				if sections {
					for i, a := range pe.SectionPlan().Alloc {
						if a.FP == po.SectionPlan().Alloc[i].FP {
							for k := a.Start; k < a.Start+a.Trials; k++ {
								restorable[k] = true
							}
						}
					}
				}
				changed, wrong := 0, 0
				for k := range fresh.Trials {
					if fresh.Trials[k].Outcome != old.Trials[k].Outcome {
						changed++
						if restorable[k] {
							wrong++
						}
					}
				}
				if wrong == 0 {
					t.Fatal("no trial an old journal would restore changed outcome: restoring it would not be wrong")
				}
				t.Logf("%d of %d trials changed outcome; an old journal would restore %d of them", changed, len(fresh.Trials), wrong)

				before := journalBytes(t, dir)
				if _, err := runEdit(editCampaign(t, edited, sections), dir); !errors.Is(err, fault.ErrCampaignMismatch) {
					t.Fatalf("edited program against the old journal: err=%v, want ErrCampaignMismatch", err)
				}
				if after := journalBytes(t, dir); after != before {
					t.Fatal("the refused journal was modified")
				}

				got, err := runEdit(editCampaign(t, edited, sections), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Trials, fresh.Trials) {
					t.Fatal("edited program journaled into a fresh journal differs from a fresh run")
				}
			})
		}
	}
}

// journalBytes returns the concatenated contents of dir's files.
func journalBytes(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no journal in %s (err=%v)", dir, err)
	}
	var all string
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all += string(data)
	}
	return all
}
