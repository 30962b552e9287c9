// Command ipas runs the full IPAS workflow against one workload and
// prints every variant's coverage, slowdown and duplication stats, plus
// the ideal-point best configurations (the tool a user would run to
// decide how to protect their code).
//
// The workflow is resilient: Ctrl-C (or -deadline expiry) stops it, and
// with -journal DIR set, every campaign checkpoints its completed
// trials into per-stage JSONL journals under DIR; re-running with
// -journal DIR -resume continues from the checkpoint and produces a
// result identical to an uninterrupted run with the same parameters.
// Every journal's header pins the program it ran, so a checkpoint
// written before an edit to the program is refused, never resumed.
//
// With -sections every single-rank campaign stratifies its trials over
// IR sections (outermost loop nests and the straight-line runs between
// them), with per-section budgets from -coverage.
//
// With -remote URL the collection campaign — the workflow's dominant
// fault-injection cost, and the one stage expressible as a
// self-contained campaign spec — is dispatched to a campaignd
// coordinator and executed by its worker fleet, split into -shards K
// leases; every other stage (training, protection, per-variant
// evaluation of protected modules, which do not round-trip through
// source text) runs locally. Results stay bit-identical to a fully
// local run. -shards requires -remote.
//
// Usage:
//
//	ipas [-workload NAME] [-input N] [-paper] [-samples N]
//	     [-trials N] [-topn N] [-seed S] [-train-workers N]
//	     [-journal DIR [-resume]] [campaign flags]
//	ipas -with-classifier FILE -save-protected FILE [-workload NAME] [-input N]
//
// The campaign flags are flipit's (internal/cli).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"ipas"
	"ipas/internal/campaign"
	"ipas/internal/cli"
	"ipas/internal/core"
	"ipas/internal/fault"
	"ipas/internal/ir"
)

func main() {
	name := flag.String("workload", "FFT", "workload: CoMD, HPCCG, AMG, FFT, IS, Jacobi, GradDesc")
	input := flag.Int("input", 1, "input level 1..4")
	paper := flag.Bool("paper", false, "paper-scale parameters (2500 samples, 500 grid points, 1024 trials)")
	samples := flag.Int("samples", 0, "override training sample count")
	trials := flag.Int("trials", 0, "override evaluation injections per variant")
	topn := flag.Int("topn", 0, "override top-N configuration count")
	seed := flag.Int64("seed", 1, "RNG seed")
	saveProtected := flag.String("save-protected", "", "write the best IPAS protected module (textual IR) to this file")
	saveClassifier := flag.String("save-classifier", "", "write the best IPAS classifier (JSON) to this file")
	withClassifier := flag.String("with-classifier", "", "skip training: protect using a previously saved classifier and write the module to -save-protected")
	journalDir := flag.String("journal", "", "checkpoint directory: one JSONL trial journal per campaign stage")
	resume := flag.Bool("resume", false, "continue an interrupted workflow from the -journal directory")
	trainWorkers := flag.Int("train-workers", 0, "concurrent grid-search workers for SVM training (0 = GOMAXPROCS; results are identical for any count)")
	cf := cli.Register(flag.CommandLine, "ipas")
	flag.Parse()
	controls, err := cf.Controls()
	if err != nil {
		fatal(err)
	}
	controls.TrainWorkers = *trainWorkers
	if controls.Remote != nil {
		// Only the collection campaign is spec-expressible (it runs the
		// unmodified workload); protected-variant evaluations cannot
		// round-trip through source text, so they degrade gracefully to
		// local execution.
		wl, in := *name, *input
		controls.RemoteSpec = func(stage string) *campaign.Spec {
			if stage != "collect" {
				return nil
			}
			return &campaign.Spec{Workload: wl, Input: in}
		}
	}

	opts := ipas.QuickOptions()
	if *paper {
		opts = ipas.PaperOptions()
	}
	if *samples > 0 {
		opts.Samples = *samples
	}
	if *trials > 0 {
		opts.EvalTrials = *trials
	}
	if *topn > 0 {
		opts.TopN = *topn
	}
	opts.Seed = *seed

	ctx, stop := cf.Context()
	defer stop()

	if *journalDir != "" {
		cp, err := ipas.NewCheckpoint(*journalDir, *resume)
		if err != nil {
			fatal(err)
		}
		defer cp.Close()
		controls.Checkpoint = cp
		if *resume {
			fmt.Fprintf(os.Stderr, "ipas: resuming from checkpoint directory %s\n", *journalDir)
		}
	} else if *resume {
		fatal(errors.New("-resume requires -journal"))
	}
	opts.Controls = controls

	app, err := ipas.FromWorkload(*name, *input)
	if err != nil {
		fatal(err)
	}

	// Protect-only mode: reuse a saved classifier (steps 1-3 already
	// paid for) and emit the protected build.
	if *withClassifier != "" {
		cls, err := core.LoadClassifier(*withClassifier)
		if err != nil {
			fatal(err)
		}
		protected, st, err := core.ProtectModule(app.Module, cls, core.PolicyIPAS)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s input %d: duplicated %d of %d duplicable instructions (%.1f%%), %d checks\n",
			*name, *input, st.Duplicated, st.Candidates, st.DuplicatedPercent(), st.Checks)
		if *saveProtected == "" {
			fatal(fmt.Errorf("-with-classifier requires -save-protected"))
		}
		if err := os.WriteFile(*saveProtected, []byte(ir.Print(protected)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("protected module written to %s (run it with: irun %s)\n", *saveProtected, *saveProtected)
		return
	}

	fmt.Printf("IPAS workflow: %s input %d — %d training samples, %d grid points, top-%d, %d eval injections\n",
		*name, *input, opts.Samples, len(opts.Grid.Cs)*len(opts.Grid.Gammas), opts.TopN, opts.EvalTrials)

	t0 := time.Now()
	res, err := ipas.RunWorkflowContext(ctx, app, opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "ipas: interrupted after %v: %v\n", time.Since(t0).Round(10*time.Millisecond), err)
			cf.Interrupted(*journalDir)
			os.Exit(130)
		}
		fatal(err)
	}
	if res.Data.Degraded != nil {
		fmt.Fprintf(os.Stderr, "ipas: degraded collection campaign: %s\n", res.Data.Campaign.ErrorSummary())
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tdup%\tsymptom%\tdetected%\tmasked%\tSOC%\treduction%\tslowdown")
	for _, v := range res.AllVariants() {
		cov := v.Coverage
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			v.Label(), v.Stats.DuplicatedPercent(),
			100*cov.Proportion(fault.OutcomeSymptom),
			100*cov.Proportion(fault.OutcomeDetected),
			100*cov.Proportion(fault.OutcomeMasked),
			100*cov.Proportion(fault.OutcomeSOC),
			v.SOCReductionPct, v.Slowdown)
	}
	w.Flush()

	// The trained variants' grid points and whether their solves
	// converged: a solve stopped at the SMO iteration cap is scored
	// and deployed as if it were trained.
	folds := opts.Grid.Folds
	if folds <= 0 {
		folds = 5
	}
	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "classifier\tC\tgamma\tCV F-score\tcapped folds\tfinal fit")
	for _, v := range res.AllVariants() {
		if v.Classifier == nil {
			continue
		}
		cfg := v.Classifier.Config
		fit := "converged"
		if v.Classifier.Model.Capped {
			fit = "capped"
		}
		fmt.Fprintf(w, "%s\t%.4g\t%.4g\t%.3f\t%d/%d\t%s\n",
			v.Label(), cfg.Params.C, cfg.Params.Gamma, cfg.CV.FScore, cfg.CV.CappedFolds, folds, fit)
	}
	w.Flush()

	for _, v := range res.AllVariants() {
		if v.Coverage.Failed > 0 {
			fmt.Fprintf(os.Stderr, "ipas: degraded %s evaluation: %s\n", v.Label(), v.Coverage.ErrorSummary())
		}
	}

	bi := res.Best(core.PolicyIPAS)
	bb := res.Best(core.PolicyBaseline)
	fmt.Printf("\nbest (ideal-point criterion):\n")
	fmt.Printf("  IPAS     %s: SOC reduction %.1f%% at %.2fx slowdown\n", bi.Label(), bi.SOCReductionPct, bi.Slowdown)
	fmt.Printf("  Baseline %s: SOC reduction %.1f%% at %.2fx slowdown\n", bb.Label(), bb.SOCReductionPct, bb.Slowdown)
	fmt.Printf("\ntraining %v (IPAS) + %v (baseline); classification+duplication %v\n",
		res.TrainIPASTime.Round(msRound), res.TrainBaselineTime.Round(msRound), res.ProtectTime.Round(msRound))

	if *saveClassifier != "" {
		if err := core.SaveClassifier(*saveClassifier, bi.Classifier); err != nil {
			fatal(err)
		}
		fmt.Printf("best classifier written to %s\n", *saveClassifier)
	}
	if *saveProtected != "" {
		if err := os.WriteFile(*saveProtected, []byte(ir.Print(bi.Module)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("best protected module written to %s\n", *saveProtected)
	}
}

const msRound = 1e7 // 10ms

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ipas:", err)
	os.Exit(1)
}
