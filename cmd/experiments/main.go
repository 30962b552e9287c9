// Command experiments regenerates the paper's evaluation tables and
// figures (§6): Table 3-6 and Figures 5-9.
//
// Long runs are interruptible: Ctrl-C (or -deadline expiry) stops the
// suite cleanly, and -progress reports per-campaign trial counts on
// stderr together with error summaries for campaigns that degraded
// (some trials failed infrastructure-side and were excluded).
//
// With -remote URL every workflow's collection campaign is dispatched
// to a campaignd coordinator and executed by its worker fleet, split
// into -shards K leases; the remaining stages run locally. Results
// stay bit-identical. -shards requires -remote.
//
// Usage:
//
//	experiments [-run all|table3|table4|table5|table6|fig5|fig6|fig7|fig8|fig9]
//	            [-quick|-paper] [-workloads CoMD,HPCCG,...] [-trials N] [-seed S]
//	            [-deadline D] [-max-retries N] [-watchdog D]
//	            [-remote URL [-shards K]] [-progress]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"ipas/internal/campaign"
	"ipas/internal/core"
	"ipas/internal/experiments"
	"ipas/internal/fault"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all or one of "+strings.Join(experiments.IDs(), "|"))
	paper := flag.Bool("paper", false, "paper-scale parameters (hours of CPU time)")
	wl := flag.String("workloads", "", "comma-separated workload subset (default: all five)")
	trials := flag.Int("trials", 0, "override evaluation injections per variant")
	samples := flag.Int("samples", 0, "override training sample count")
	seed := flag.Int64("seed", 1, "RNG seed")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the whole suite (0 = none)")
	maxRetries := flag.Int("max-retries", 2, "per-trial retries after infrastructure errors (0 = none)")
	shards := flag.Int("shards", 1, "with -remote: shards the coordinator splits each collection campaign into (results are bit-identical)")
	watchdog := flag.Duration("watchdog", 0, "per-MPI-op wall-clock watchdog in every campaign (0 = interpreter default)")
	remote := flag.String("remote", "", "campaignd coordinator URL; dispatch each workflow's collection campaign there")
	trainWorkers := flag.Int("train-workers", 0, "concurrent grid-search workers for SVM training (0 = GOMAXPROCS; results are identical for any count)")
	progress := flag.Bool("progress", false, "report per-campaign progress and error summaries on stderr")
	sections := flag.Bool("sections", false, "run each single-rank campaign sectioned: stratify trials over IR sections with per-section budgets")
	sectionCoverage := flag.Int("coverage", 1, "sectioned coverage factor: expected injections per exercised site per section")
	maxPerSection := flag.Int("max-per-section", 0, "cap on any one section's trial budget (0 = engine default)")
	errorModel := flag.String("error-model", "", "error model for every injection campaign: single-bit (default), burst-N, random-N, correlated, sticky")
	flag.Parse()
	model, err := fault.ParseModel(*errorModel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *shards > 1 && *remote == "" {
		fmt.Fprintln(os.Stderr, "experiments: -shards partitions the -remote collection campaigns across the coordinator's workers; it needs -remote")
		os.Exit(1)
	}

	params := experiments.Quick()
	if *paper {
		params = experiments.Paper()
	}
	if *wl != "" {
		params.Workloads = strings.Split(*wl, ",")
	}
	if *trials > 0 {
		params.Opts.EvalTrials = *trials
		params.InputTrials = *trials
	}
	if *samples > 0 {
		params.Opts.Samples = *samples
	}
	params.Opts.Seed = *seed

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
		// The suite scopes a per-workload RemoteSpec onto these
		// controls (collection campaigns only; see Suite.optsFor).
		controls.Remote = &campaign.Client{Base: *remote}
	}
	if *progress {
		controls.Progress = newProgressReporter()
	}
	params.Opts.Controls = controls

	suite := experiments.NewSuite(params)
	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		t, err := suite.RunContext(ctx, strings.TrimSpace(id))
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted: %v\n", id, err)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
}

// newProgressReporter returns a stage-aware progress callback: it logs
// roughly every tenth of each campaign plus its completion, and flags
// campaigns that finished with failed trials.
func newProgressReporter() func(stage string, done, total, failed, deadlocked int) {
	var mu sync.Mutex
	return func(stage string, done, total, failed, deadlocked int) {
		step := total / 10
		if step == 0 {
			step = 1
		}
		if done%step != 0 && done != total {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		what := "trials"
		// Stage names arrive workload-prefixed ("FFT: train IPAS"),
		// so match anywhere in the string.
		if strings.Contains(stage, "train") {
			what = "grid points"
		}
		suffix := ""
		if deadlocked > 0 {
			suffix = fmt.Sprintf(", %d deadlocked", deadlocked)
		}
		if done == total && failed > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %s: %d/%d %s, %d failed (excluded from proportions)%s\n",
				stage, done, total, what, failed, suffix)
			return
		}
		fmt.Fprintf(os.Stderr, "experiments: %s: %d/%d %s%s\n", stage, done, total, what, suffix)
	}
}
