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
//	ipas [-workload NAME] [-input N] [-quick|-paper] [-samples N]
//	     [-trials N] [-topn N] [-seed S]
//	     [-journal DIR [-resume]] [-deadline D] [-max-retries N]
//	     [-watchdog D] [-remote URL [-shards K]] [-progress]
//	     [-sections [-coverage N] [-max-per-section N]]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"ipas"
	"ipas/internal/campaign"
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
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the workflow (0 = none)")
	maxRetries := flag.Int("max-retries", 2, "per-trial retries after infrastructure errors (0 = none)")
	shards := flag.Int("shards", 1, "with -remote: shards the coordinator splits the collection campaign into (results are bit-identical)")
	watchdog := flag.Duration("watchdog", 0, "per-MPI-op wall-clock watchdog in every campaign (0 = interpreter default)")
	remote := flag.String("remote", "", "campaignd coordinator URL; dispatch the collection campaign there")
	trainWorkers := flag.Int("train-workers", 0, "concurrent grid-search workers for SVM training (0 = GOMAXPROCS; results are identical for any count)")
	progress := flag.Bool("progress", false, "report campaign and training progress on stderr")
	sections := flag.Bool("sections", false, "run each single-rank campaign sectioned: stratify trials over IR sections with per-section budgets (checkpointed like plain campaigns, one journal per stage)")
	sectionCoverage := flag.Int("coverage", 1, "sectioned coverage factor: expected injections per exercised site per section")
	maxPerSection := flag.Int("max-per-section", 0, "cap on any one section's trial budget (0 = engine default)")
	errorModel := flag.String("error-model", "", "error model for every injection campaign: single-bit (default), burst-N, random-N, correlated, sticky")
	flag.Parse()
	if *shards > 1 && *remote == "" {
		fatal(errors.New("-shards partitions the -remote collection campaign across the coordinator's workers; it needs -remote"))
	}
	model, err := fault.ParseModel(*errorModel)
	if err != nil {
		fatal(err)
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	controls := &core.CampaignControls{
		Model:           model,
		MaxRetries:      fault.ExplicitRetries(*maxRetries),
		TrainWorkers:    *trainWorkers,
		Shards:          *shards,
		Watchdog:        *watchdog,
		Sections:        *sections,
		SectionCoverage: *sectionCoverage,
		MaxPerSection:   *maxPerSection,
	}
	if *remote != "" {
		// Only the collection campaign is spec-expressible (it runs the
		// unmodified workload); protected-variant evaluations cannot
		// round-trip through source text, so they degrade gracefully to
		// local execution.
		wl, in := *name, *input
		controls.Remote = &campaign.Client{Base: *remote}
		controls.RemoteSpec = func(stage string) *campaign.Spec {
			if stage != "collect" {
				return nil
			}
			return &campaign.Spec{Workload: wl, Input: in}
		}
	}
	if *progress {
		controls.Progress = func(stage string, done, total, failed, deadlocked int) {
			if done%50 == 0 || done == total {
				what := "trials"
				if strings.Contains(stage, "train") {
					what = "grid points"
				}
				extra := ""
				if deadlocked > 0 {
					extra = fmt.Sprintf(", %d deadlocked", deadlocked)
				}
				fmt.Fprintf(os.Stderr, "ipas: %s: %d/%d %s (%d failed%s)\n", stage, done, total, what, failed, extra)
			}
		}
	}
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
			if *journalDir != "" {
				fmt.Fprintf(os.Stderr, "ipas: checkpoint saved; rerun with -journal %s -resume to continue\n", *journalDir)
			} else {
				fmt.Fprintln(os.Stderr, "ipas: no -journal was set, so this partial progress is lost on exit")
			}
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
