// Command flipit runs a statistical fault-injection campaign (the
// paper's FlipIt role) against one of the five evaluation workloads and
// prints the outcome proportions of §5.5.
//
// The campaign is resilient: Ctrl-C (or -deadline expiry) checkpoints
// completed trials into the -journal file and exits; re-running with
// -resume continues from the journal and produces a result
// bit-identical to an uninterrupted run with the same seed. A trial
// that hits an infrastructure error is retried twice and then reported
// without aborting the campaign.
//
// With -remote URL the campaign is submitted to a campaignd
// coordinator instead of running in-process: the coordinator splits
// the trial space into -shards K leases across its ipas-worker fleet
// and journals every acked trial durably, and the result printed here
// is bit-identical to the local run with the same seed. -shards
// requires -remote: a local campaign runs every trial on one pool of
// -workers goroutines.
//
// With -sections the trial space stratifies over IR sections
// (outermost loop nests and the straight-line runs between them): each
// section gets its own budget from -coverage, and the whole-program
// distribution is composed by population weighting. -journal and
// -resume work as for a plain campaign. A journal's header pins the
// whole program, so a journal written before an edit to the program is
// refused, never resumed.
//
// Usage:
//
//	flipit [-workload NAME] [-input N] [-n TRIALS] [-seed S] [-funcs]
//	       [-journal FILE [-resume]] [-workers N] [-model-report]
//	       [campaign flags]
//
// The campaign flags, shared with ipas and experiments (internal/cli),
// are [-deadline D] [-remote URL [-shards K]] [-progress]
// [-sections [-coverage N] [-max-per-section N]] [-error-model M].
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"ipas/internal/campaign"
	"ipas/internal/cli"
	"ipas/internal/compose"
	"ipas/internal/core"
	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/stats"
	"ipas/internal/workloads"
)

func main() {
	name := flag.String("workload", "FFT", "workload: CoMD, HPCCG, AMG, FFT, IS, Jacobi, GradDesc")
	input := flag.Int("input", 1, "input level 1..4 (Table 5)")
	n := flag.Int("n", 200, "number of injection trials")
	seed := flag.Int64("seed", 1, "campaign RNG seed")
	funcs := flag.Bool("funcs", false, "break outcomes down per function")
	journalPath := flag.String("journal", "", "JSONL trial journal for checkpointing (enables resume)")
	resume := flag.Bool("resume", false, "continue a campaign from an existing non-empty -journal")
	workers := flag.Int("workers", 0, "concurrent trial workers (0 = GOMAXPROCS)")
	modelReport := flag.Bool("model-report", false, "compare every built-in error model: unprotected outcome distribution plus DMR detector recall per model (two local campaigns per model; ignores -error-model, -journal, -shards, -remote, -sections)")
	cf := cli.Register(flag.CommandLine, "flipit")
	flag.Parse()

	if *modelReport {
		// The report runs local plain campaigns, one pair per model.
		cf.Remote, cf.Shards, cf.Sections = "", 1, false
	}
	cc, err := cf.Controls()
	if err != nil {
		fatal(err)
	}
	cc.Workers = *workers
	if cc.Remote != nil {
		wl, in := *name, *input
		cc.RemoteSpec = func(string) *campaign.Spec { return &campaign.Spec{Workload: wl, Input: in} }
		if *journalPath != "" {
			fatal(errors.New("-remote and -journal are mutually exclusive: remote campaigns journal durably on the coordinator"))
		}
	}
	ctx, stop := cf.Context()
	defer stop()

	spec, err := workloads.Get(*name, *input)
	if err != nil {
		fatal(err)
	}
	m, err := spec.Compile()
	if err != nil {
		fatal(err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		fatal(err)
	}
	c := &fault.Campaign{Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: *seed}

	if *modelReport {
		if err := reportModels(ctx, cc, m, c, *n); err != nil {
			fatal(err)
		}
		return
	}

	if *journalPath != "" {
		journal, err := core.OpenJournal(*journalPath, *resume)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
		if journal.Restored() > 0 {
			fmt.Fprintf(os.Stderr, "flipit: resuming: %d trials restored from %s\n", journal.Restored(), *journalPath)
		}
		c.Journal = journal
	} else if *resume {
		fatal(fmt.Errorf("-resume requires -journal"))
	}

	res, err := cc.Run(ctx, c, *n, "campaign")
	if res == nil {
		fatal(err)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "flipit: interrupted (%v): %d/%d trials completed\n", ctx.Err(), res.Completed, len(res.Trials))
		cf.Interrupted(*journalPath)
	} else if err != nil {
		// Infrastructure failures: the campaign degraded but completed.
		fmt.Fprintf(os.Stderr, "flipit: degraded campaign: %s\n", res.ErrorSummary())
	}
	if res.Completed == 0 {
		fatal(errors.New("no trials completed"))
	}

	fmt.Printf("%s input %d (%s): %d/%d injections completed, golden run %d dyn instrs\n",
		*name, *input, spec.InputDesc, res.Completed, len(res.Trials), res.GoldenDyn)
	if cc.Sections {
		// Re-derive the section plan locally: it is deterministic, a
		// golden-cache hit after a local run, and is derived even once
		// ctx is done, so an interrupted campaign reports its partial
		// result too.
		prep, err := c.Prepare(context.WithoutCancel(ctx))
		if err != nil {
			fatal(err)
		}
		printSectioned(prep.SectionResult(res))
	} else {
		for _, o := range []fault.Outcome{fault.OutcomeSymptom, fault.OutcomeDetected, fault.OutcomeMasked, fault.OutcomeSOC} {
			p := res.Proportion(o)
			fmt.Printf("  %-9s %6.2f%%  ± %.2f%% (95%%)\n", o, 100*p, 100*stats.MarginOfError95(p, res.Completed))
		}
	}
	if res.Deadlocks > 0 {
		fmt.Printf("  %d trial(s) deadlocked the job; first attribution:\n", res.Deadlocks)
		for _, tr := range res.Trials {
			if tr.Deadlock != "" {
				fmt.Printf("    trial site %d bit %d index %d: %s\n", tr.Site, tr.Bit, tr.Index, tr.Deadlock)
				break
			}
		}
	}

	if *funcs {
		bySite := m.InstrBySite()
		type agg struct{ soc, total int }
		byFn := map[string]*agg{}
		for _, tr := range res.Trials {
			if tr.Status != fault.TrialCompleted {
				continue
			}
			fn := bySite[tr.Site].Block().Func().Name()
			a := byFn[fn]
			if a == nil {
				a = &agg{}
				byFn[fn] = a
			}
			a.total++
			if tr.Outcome == fault.OutcomeSOC {
				a.soc++
			}
		}
		names := make([]string, 0, len(byFn))
		for fn := range byFn {
			names = append(names, fn)
		}
		sort.Strings(names)
		fmt.Println("per-function SOC rate:")
		for _, fn := range names {
			a := byFn[fn]
			fmt.Printf("  %-16s %3d/%3d trials SOC (%.1f%%)\n",
				"@"+fn, a.soc, a.total, 100*float64(a.soc)/float64(a.total))
		}
	}

	if ctx.Err() != nil {
		os.Exit(130)
	}
}

// printSectioned reports a sectioned campaign, run here or on a
// coordinator: the composed whole-program distribution (raw trial
// proportions would overweight cold sections) and the per-section
// allocation.
func printSectioned(secRes *fault.SectionResult) {
	d, err := compose.Whole(compose.FromSectionResult(secRes))
	if err != nil {
		fmt.Fprintf(os.Stderr, "flipit: composing sections: %v\n", err)
	} else {
		fmt.Printf("composed whole-program distribution (population-weighted over %d sections):\n", len(secRes.Plan.Alloc))
		for _, o := range []fault.Outcome{fault.OutcomeSymptom, fault.OutcomeDetected, fault.OutcomeMasked, fault.OutcomeSOC} {
			fmt.Printf("  %-9s %6.2f%%\n", o, 100*d[o])
		}
	}
	fmt.Printf("sectioned: %d trials; monolithic equivalent at equal coverage: %d trials\n",
		secRes.Plan.Total, secRes.Plan.MonoTrials)
	fmt.Println("per-section allocation:")
	for _, st := range secRes.Stats {
		fmt.Printf("  %-32s pop %8d  trials %4d  fp %.12s\n", st.Label, st.Pop, st.Trials, st.FP)
	}
}

// reportModels runs the per-model resilience comparison: for every
// built-in error model, one campaign against the unprotected workload
// (how does the outcome distribution shift as faults get nastier?) and
// one against a fully duplicated (DMR) build of the same module (how
// much of the residual SOC does the stock detector still catch?).
// Recall = Detected / (Detected + SOC) on the protected build — the
// figure that collapses when a model defeats the protection's
// single-upset assumption.
func reportModels(ctx context.Context, cc *core.CampaignControls, m *ir.Module, c *fault.Campaign, trials int) error {
	pm := ir.CloneModule(m)
	st, err := dup.FullDuplication(pm)
	if err != nil {
		return err
	}
	pprog, err := fault.Compile(pm)
	if err != nil {
		return err
	}

	run := func(p *interp.Program, model fault.ErrorModel, build string) (*fault.CampaignResult, error) {
		mc, mcc := *c, *cc
		mc.Prog, mcc.Model = p, model
		res, err := mcc.Run(ctx, &mc, trials, "model-report "+model.Name()+" "+build)
		if res == nil {
			return nil, err
		}
		if err != nil && ctx.Err() != nil {
			return nil, err
		}
		return res, nil
	}

	fmt.Printf("error-model report: %d trials per campaign, seed %d; DMR build duplicates %d of %d instructions\n",
		trials, c.Seed, st.Duplicated, st.Candidates)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\tsymptom%\tdetected%\tmasked%\tSOC%\t|\tDMR SOC%\tDMR recall%")
	for _, model := range fault.BuiltinModels() {
		base, err := run(c.Prog, model, "unprotected")
		if err != nil {
			return err
		}
		prot, err := run(pprog, model, "DMR")
		if err != nil {
			return err
		}
		det := prot.Counts[fault.OutcomeDetected]
		soc := prot.Counts[fault.OutcomeSOC]
		recall := "n/a"
		if det+soc > 0 {
			recall = fmt.Sprintf("%.1f", 100*float64(det)/float64(det+soc))
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t|\t%.1f\t%s\n",
			model.Name(),
			100*base.Proportion(fault.OutcomeSymptom),
			100*base.Proportion(fault.OutcomeDetected),
			100*base.Proportion(fault.OutcomeMasked),
			100*base.Proportion(fault.OutcomeSOC),
			100*prot.Proportion(fault.OutcomeSOC),
			recall)
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flipit:", err)
	os.Exit(1)
}
