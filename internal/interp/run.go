package interp

import (
	"context"
	"math"
	"sync"
)

// FaultPlan asks the interpreter to corrupt the result of the Index-th
// dynamic injectable-instruction instance executed on Rank. The default
// corruption is a single flipped bit (Bit); Mask, Correlated and Sticky
// select the richer error models (see CorruptValue for the exact
// semantics of each knob and how raw positions fold into the result
// type's width).
type FaultPlan struct {
	Rank  int
	Index int64
	// Bit is the raw flip position in [0, 64): reduced modulo the result
	// width at injection time when neither Mask nor Correlated is set.
	Bit int
	// Mask, when non-zero, replaces the single-bit flip with a multi-bit
	// corruption: every set raw position folds modulo the result width
	// and the folded positions XOR together (so two raw positions
	// landing on the same physical bit cancel — a defective bus lane
	// model, not an OR).
	Mask uint64
	// Correlated, when set, makes the flip value-correlated: the flipped
	// position sits Bit+1 places above the value's most significant set
	// bit (wrapped to the width), so corruption magnitude tracks value
	// magnitude.
	Correlated bool
	// Sticky, when set, models a defective functional unit: after the
	// plan fires once, every subsequent dynamic execution of the same
	// static instruction re-applies the corruption. Sticky runs never
	// take the early-masked section exit (the suffix keeps being
	// corrupted, so a matching boundary digest proves nothing).
	Sticky bool
	// Section restricts instance counting to dynamic instances executed
	// while the named section is current: Index then selects within the
	// section's own population (SectionTrace.Pops). Only consulted when
	// Config.Sections is armed; a plain plan leaves it zero.
	Section int32
}

// Config parameterizes a job execution.
type Config struct {
	// Ranks is the number of simulated MPI processes (default 1).
	Ranks int
	// HeapBytes sizes each rank's heap (default 64 MiB); every rank's
	// stack is 1 MiB.
	HeapBytes int64
	// MaxInstrs is the per-rank dynamic instruction budget; exceeding
	// it raises TrapBudget (the hang detector) on whichever loop the
	// rank is on, at executed count MaxInstrs+1. 0 means unlimited.
	//
	// CountSites, Fault and Sections together select the execution
	// loop, per rank: a rank starts on the fully instrumented loop iff
	// CountSites is set, Fault targets it, or Sections arms section
	// tracking on it (single-rank runs only), and so does a
	// CaptureSnapshots run; every other rank runs the uninstrumented
	// fast loop (see exec.go). A rank with a transient plan and no site
	// counting leaves the full loop for the fast one right after its
	// flip, or, when it tracks sections, right after the early-masked
	// check at the injected instance's first exit; a sticky plan keeps
	// it on the full loop. The choice is never made per instruction and
	// is invisible to results: both loops produce byte-identical
	// outputs, traps, dynamic counts and injectable populations.
	MaxInstrs int64
	// Fault, when non-nil, arms single-bit corruption.
	Fault *FaultPlan
	// CountSites enables per-site dynamic instruction counting.
	CountSites bool
	// Sections arms section-boundary tracking over the program's
	// section projection: a run without a fault plan records the
	// boundary trace (Result.Sections); a trial gets section-targeted
	// injection and, given the golden trace, early-masked exit. It
	// starts the rank on the instrumented loop and is honored only for
	// single-rank runs: a rank stopping early at a boundary would
	// strand MPI peers, so multi-rank configurations ignore it.
	Sections *SectionConfig
	// Resume, when non-nil, starts an armed single-rank run from the
	// last golden-run snapshot taken before its fault plan's injection
	// instance instead of from instruction zero (see CaptureSnapshots):
	// for a section-tracked run, the last one before the plan's Index
	// within its Section. Every Result field equals that of the run from
	// zero. A run the snapshots cannot serve — more ranks, site
	// counting, another program or heap size, section tracking
	// on only one side, no fault plan — starts from zero as if Resume
	// were nil.
	Resume *Snapshots

	// capture arms snapshot recording on rank 0 (captureRun).
	capture *capture
}

// WithDefaults resolves zero-valued knobs to their defaults. RunContext
// applies it internally; external callers needing the resolved values —
// e.g. the golden cache keying on the effective heap size —
// call it explicitly.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// sectioned reports whether a run under c tracks sections: Sections
// arms them on a single-rank run.
func (c Config) sectioned() bool {
	return c.Sections != nil && c.Ranks == 1
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.HeapBytes <= 0 {
		c.HeapBytes = 64 << 20
	}
	return c
}

// Result reports the outcome of a job execution.
type Result struct {
	// Trap is the first abnormal termination observed across ranks
	// (TrapNone for a clean run), with the rank and message. For
	// TrapDeadlock the fields are derived deterministically from
	// Deadlock (lowest blocked rank, report summary).
	Trap     Trap
	TrapRank int
	TrapMsg  string

	// Deadlock is the rank supervisor's structural-deadlock
	// attribution, non-nil iff deadlock was declared. Its content is a
	// pure function of the program and configuration (no wall-clock
	// value enters), so it is bit-identical across runs, worker counts
	// and checkpoint/resume.
	Deadlock *DeadlockReport

	// Injected reports whether the fault plan actually fired, on which
	// static site, and after how many executed instructions on the
	// injected rank (for detection-latency analysis).
	Injected     bool
	InjectedSite int
	InjectedAt   int64
	// InjectedRankDyn is the injected rank's final executed count.
	InjectedRankDyn int64
	// InjectedMask is the effective corruption mask the first firing
	// actually XORed into the value's bit pattern, in the result type's
	// own width (raw plan positions fold modulo the width, so this can
	// differ from the plan — and can even be zero when folded positions
	// cancel, in which case the value was left unchanged).
	InjectedMask uint64
	// Corruptions counts corruption applications: 1 for a transient
	// fault, >= 1 for a sticky plan (one per dynamic re-execution of the
	// defective static instruction).
	Corruptions int64

	// DynInstrs is the per-rank executed dynamic instruction count;
	// TotalDyn is their sum (the slowdown metric numerator).
	DynInstrs []int64
	TotalDyn  int64
	// MaxRankDyn is the largest per-rank count (parallel makespan).
	MaxRankDyn int64

	// Injectable is the per-rank count of injectable dynamic
	// instruction instances executed, in every run: of a fault-free run
	// it is the fault-sampling population. A section-targeted plan's
	// Index counts its own section's instances, but this count still
	// covers every section.
	Injectable []int64

	// OutputF and OutputI are rank 0's output buffers, written by the
	// out_f64/out_i64 builtins and consumed by verification routines.
	OutputF []float64
	OutputI []int64

	// PrintLog collects print_f64/print_i64 values from rank 0.
	PrintLog []float64

	// SiteCounts is the per-site dynamic instruction count summed over
	// ranks (only when Config.CountSites).
	SiteCounts []int64

	// EarlyMasked reports that the run stopped at a section boundary
	// because its state digest matched the golden run's: the suffix
	// would replay the fault-free execution, so the trial is Masked.
	// Outputs are truncated at the stop point and must not be verified.
	EarlyMasked bool
	// Sections is the boundary trace rank 0 recorded: set for a
	// section-tracked run without a fault plan.
	Sections *SectionTrace
}

// Run executes the program under the given configuration.
func Run(p *Program, cfg Config) *Result {
	return RunContext(context.Background(), p, cfg)
}

// RunContext executes the program, aborting with TrapCancelled as soon
// as ctx is cancelled or its deadline expires. Cancellation is polled
// in the instruction loop and honored by blocked MPI operations, so a
// hung or long run stops within a bounded number of instructions.
func RunContext(ctx context.Context, p *Program, cfg Config) *Result {
	cfg = cfg.withDefaults()
	cancel := ctx.Done()
	c := newComm(cfg.Ranks, cancel)
	ranks := make([]*rank, cfg.Ranks)
	for i := range ranks {
		r := &rank{
			id:           i,
			prog:         p,
			mem:          NewMemory(cfg.HeapBytes),
			comm:         c,
			cancel:       cancel,
			limit:        math.MaxInt64,
			injectedSite: -1,
			secTarget:    -1,
			injSec:       -1,
			zeroFrames:   p.zeroFrames,
			snapAt:       math.MaxInt64,
		}
		if cfg.MaxInstrs > 0 {
			r.limit = cfg.MaxInstrs
		}
		if cfg.Fault != nil && cfg.Fault.Rank == i {
			r.injectArmed = true
			r.injectIndex = cfg.Fault.Index
			r.injectBit = cfg.Fault.Bit
			r.injectMask = cfg.Fault.Mask
			r.injectCorrelated = cfg.Fault.Correlated
			r.injectSticky = cfg.Fault.Sticky
		}
		if cfg.CountSites {
			r.countSites = true
			r.siteCounts = make([]int64, p.NumSites)
		}
		if cfg.sectioned() {
			r.sec = p.sections()
			n := len(r.sec.parts.All)
			r.secOrd = make([]int64, n)
			if cfg.Fault == nil {
				r.secCap = newSectionTrace(n)
			}
			r.secGold = cfg.Sections.Golden
			if r.injectArmed {
				r.secTarget = cfg.Fault.Section
			}
		}
		// Snapshot capture and resume only ever serve single-rank runs.
		if cfg.capture != nil {
			r.capture = cfg.capture
			r.snapAt = cfg.capture.every
		}
		if s := cfg.Resume.from(p, cfg); s != nil {
			r.restore(s)
		}
		// Loop specialization: a rank with any instrumentation armed —
		// site counting, section tracking, snapshot capture, or an
		// injection plan targeting it — starts on the full loop, which
		// a transient plan leaves once its flip is behind it
		// (leaveFull); everything else takes the fast loop.
		r.instrumented = r.countSites || r.injectArmed || r.sec != nil || r.capture != nil
		ranks[i] = r
	}

	var mu sync.Mutex
	res := &Result{InjectedSite: -1, TrapRank: -1}

	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trap, msg := ranks[i].run()
			// Tell the supervisor this rank terminated (idempotent —
			// parked ops mark their own trap before unwinding). A
			// clean exit may complete the structural-deadlock
			// condition for still-blocked peers.
			c.finish(i, trap)
			if trap != TrapNone {
				mu.Lock()
				if res.Trap == TrapNone {
					res.Trap, res.TrapRank, res.TrapMsg = trap, i, msg
				}
				mu.Unlock()
				c.abort()
			}
		}(i)
	}
	wg.Wait()

	// On deadlock, every blocked rank panicked TrapDeadlock
	// concurrently and the first-recorded one won the race above;
	// override the attribution deterministically from the report (the
	// report itself is the unique final quiescent configuration). Every
	// rank has returned, so the report is read without the lock.
	if rep := c.report; rep != nil {
		res.Deadlock = rep
		if res.Trap == TrapDeadlock {
			res.TrapRank = rep.Blocked[0].Rank
			res.TrapMsg = rep.Summary()
		}
	}

	// Secondary aborts ("job aborted") on other ranks are consequences
	// of the primary trap already recorded.
	for i, r := range ranks {
		res.DynInstrs = append(res.DynInstrs, r.executed)
		res.TotalDyn += r.executed
		if r.executed > res.MaxRankDyn {
			res.MaxRankDyn = r.executed
		}
		res.Injectable = append(res.Injectable, r.injectableSeen)
		if r.injected {
			res.Injected = true
			res.InjectedSite = r.injectedSite
			res.InjectedAt = r.injectedAt
			// Latency from injection to this rank's termination.
			res.InjectedRankDyn = r.executed
			res.InjectedMask = r.injectedMask
			res.Corruptions = r.corruptions
		}
		if r.earlyMasked {
			res.EarlyMasked = true
		}
		if i == 0 {
			res.OutputF = r.outputF
			res.OutputI = r.outputI
			res.PrintLog = r.printLog
			res.Sections = r.secCap
		}
		if cfg.CountSites {
			if res.SiteCounts == nil {
				res.SiteCounts = make([]int64, p.NumSites)
			}
			for s, n := range r.siteCounts {
				res.SiteCounts[s] += n
			}
		}
	}
	// All observables have been copied out of rank state; the address
	// spaces can be recycled for the next run.
	for _, r := range ranks {
		r.mem.Release()
	}
	return res
}
