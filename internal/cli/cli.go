// Package cli is the campaign command line that flipit, ipas and
// experiments share: the eight flags that configure every campaign a
// command runs (-deadline, -shards, -remote, -progress, -sections,
// -coverage, -max-per-section, -error-model), bound once, and what the
// commands derive from them — the campaign controls, the run's
// cancellation context, the progress lines and the notice an
// interrupted run leaves. Only commands import it, so no library
// package gains flag or signal handling. No flag sets the trial retry
// budget: every trial retries an infrastructure error twice.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/core"
	"ipas/internal/fault"
)

// Flags holds the shared campaign flags after parsing.
type Flags struct {
	Deadline      time.Duration
	Shards        int
	Remote        string
	Progress      bool
	Sections      bool
	Coverage      int
	MaxPerSection int
	ErrorModel    string

	cmd    string    // prefixes progress lines and notices
	stderr io.Writer // receives progress lines and notices
}

// Register binds the shared flags on fs for the command named cmd.
func Register(fs *flag.FlagSet, cmd string) *Flags {
	f := &Flags{cmd: cmd, stderr: os.Stderr}
	fs.DurationVar(&f.Deadline, "deadline", 0, "wall-clock budget for the run (0 = none)")
	fs.IntVar(&f.Shards, "shards", 1, "with -remote: shards the coordinator splits each campaign into (results are bit-identical)")
	fs.StringVar(&f.Remote, "remote", "", "campaignd coordinator URL; dispatch the campaigns a coordinator can run there instead of running them locally")
	fs.BoolVar(&f.Progress, "progress", false, "report each campaign's trials and each training's grid points on stderr")
	fs.BoolVar(&f.Sections, "sections", false, "run each single-rank campaign sectioned: stratify trials over IR sections, whose per-section budgets replace the trial count, and compose the whole-program distribution")
	fs.IntVar(&f.Coverage, "coverage", 1, "sectioned coverage factor: expected injections per exercised site per section")
	fs.IntVar(&f.MaxPerSection, "max-per-section", 0, "cap on any one section's trial budget (0 = engine default)")
	fs.StringVar(&f.ErrorModel, "error-model", "", "error model for every injection campaign: single-bit (default), burst-N, random-N, correlated, sticky")
	return f
}

// Controls returns the campaign controls the flags select. An unknown
// -error-model and -shards without -remote are usage errors, reported
// before any campaign runs.
func (f *Flags) Controls() (*core.CampaignControls, error) {
	model, err := fault.ParseModel(f.ErrorModel)
	if err != nil {
		return nil, err
	}
	if f.Shards > 1 && f.Remote == "" {
		return nil, errors.New("-shards partitions a -remote campaign across the coordinator's workers; it needs -remote")
	}
	cc := &core.CampaignControls{
		Model:           model,
		Shards:          f.Shards,
		Sections:        f.Sections,
		SectionCoverage: f.Coverage,
		MaxPerSection:   f.MaxPerSection,
	}
	if f.Remote != "" {
		cc.Remote = &campaign.Client{Base: f.Remote}
	}
	if f.Progress {
		cc.Progress = f.progress()
	}
	return cc, nil
}

// progress returns the printer behind -progress: one line, tagged with
// the stage, each time a stage reaches a new tenth of its total, the
// last at completion. It tracks tenths reached, not multiples of a
// step, because a coordinator's progress arrives in jumps between
// polls. Training stages count grid points; campaigns count trials
// with their failed and deadlocked tallies.
func (f *Flags) progress() func(stage string, done, total, failed, deadlocked int) {
	var mu sync.Mutex
	printed := map[string]int{} // the tenth each stage last reported
	return func(stage string, done, total, failed, deadlocked int) {
		mu.Lock()
		defer mu.Unlock()
		tenth := 10
		if done < total {
			tenth = 10 * done / total
		}
		if tenth == printed[stage] {
			return
		}
		printed[stage] = tenth
		// Stage names may arrive workload-prefixed ("FFT: train IPAS").
		if strings.Contains(stage, "train") {
			fmt.Fprintf(f.stderr, "%s: %s: %d/%d grid points\n", f.cmd, stage, done, total)
			return
		}
		fmt.Fprintf(f.stderr, "%s: %s: %d/%d trials (%d failed, %d deadlocked)\n", f.cmd, stage, done, total, failed, deadlocked)
	}
}

// Context returns the context the run's campaigns observe: SIGINT and
// SIGTERM cancel it, and so does -deadline when set. stop releases it.
func (f *Flags) Context() (ctx context.Context, stop context.CancelFunc) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.Deadline <= 0 {
		return ctx, stopSignals
	}
	ctx, cancel := context.WithTimeout(ctx, f.Deadline)
	return ctx, func() { cancel(); stopSignals() }
}

// Interrupted tells the user of an interrupted run whether its
// completed trials survive: checkpointed under journal, which a rerun
// with -resume continues, or lost when no journal was set.
func (f *Flags) Interrupted(journal string) {
	if journal == "" {
		fmt.Fprintf(f.stderr, "%s: no -journal was set, so this partial progress is lost on exit\n", f.cmd)
		return
	}
	fmt.Fprintf(f.stderr, "%s: checkpoint saved; rerun with -journal %s -resume to continue\n", f.cmd, journal)
}
