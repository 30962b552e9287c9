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
//	experiments [-run all|table3|table5|fig5|fig6|fig7|table4|fig8|fig9|table6]
//	            [-paper] [-workloads CoMD,HPCCG,...] [-trials N] [-samples N]
//	            [-seed S] [-csv] [-train-workers N] [campaign flags]
//
// The campaign flags are flipit's (internal/cli).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ipas/internal/cli"
	"ipas/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all or one of "+strings.Join(experiments.IDs(), "|"))
	paper := flag.Bool("paper", false, "paper-scale parameters (hours of CPU time)")
	wl := flag.String("workloads", "", "comma-separated workload subset (default: all five)")
	trials := flag.Int("trials", 0, "override evaluation injections per variant")
	samples := flag.Int("samples", 0, "override training sample count")
	seed := flag.Int64("seed", 1, "RNG seed")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	trainWorkers := flag.Int("train-workers", 0, "concurrent grid-search workers for SVM training (0 = GOMAXPROCS; results are identical for any count)")
	cf := cli.Register(flag.CommandLine, "experiments")
	flag.Parse()
	// With -remote, the suite scopes a per-workload RemoteSpec onto
	// the controls (collection campaigns only; see Suite.optsFor).
	controls, err := cf.Controls()
	if err != nil {
		fatal(err)
	}
	controls.TrainWorkers = *trainWorkers

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
	params.Opts.Controls = controls

	ctx, stop := cf.Context()
	defer stop()

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
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
