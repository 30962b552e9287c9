// Package fault implements statistical fault injection over the IPAS
// IR, the role FlipIt plays in the paper: it samples uniformly random
// dynamic instances of injectable instructions, flips one uniformly
// random bit in the instruction's result, and classifies the run's
// outcome into the paper's four categories (§5.5): observable symptom,
// detected by duplication, masked, and silent output corruption.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	mbits "math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ipas/internal/interp"
	"ipas/internal/ir"
)

// Injectable is the paper's fault model (§3): faults corrupt the
// resulting register value of computational instructions — functional
// units, address computations, stack allocation, and values returned
// from calls. Loads and stores are excluded (memory and its datapaths
// are ECC-protected), control-flow instructions are excluded (handled
// by control-flow checking, out of scope), and PHI nodes are excluded
// (SSA bookkeeping, not a hardware operation). Shadow duplicates are
// legitimate targets — protection code is code — but the comparison
// checks themselves are not (they are branch logic).
func Injectable(in *ir.Instr) bool {
	if !in.HasResult() || in.Op().IsTerminator() {
		return false
	}
	switch in.Op() {
	case ir.OpLoad, ir.OpPhi:
		return false
	}
	return in.Prot != ir.ProtCheck
}

// InjectableIncludingLoads widens the fault model to load results,
// modeling a machine WITHOUT ECC on the memory datapath. The paper
// assumes ECC (§3); this variant exists for the ablation that
// quantifies how much that assumption matters (loads are never
// duplicable, so every protection scheme loses coverage under it).
func InjectableIncludingLoads(in *ir.Instr) bool {
	if Injectable(in) {
		return true
	}
	return in.Op() == ir.OpLoad && in.Prot != ir.ProtCheck
}

// Outcome classifies one fault-injection run (§5.5 of the paper).
type Outcome int

const (
	// OutcomeSymptom: crash, hang, or other system-visible failure;
	// recoverable by checkpoint/restart.
	OutcomeSymptom Outcome = iota
	// OutcomeDetected: a duplication check caught the corruption.
	OutcomeDetected
	// OutcomeMasked: the run completed and the verification routine
	// accepted the output.
	OutcomeMasked
	// OutcomeSOC: silent output corruption — the run completed but the
	// verification routine rejected the output.
	OutcomeSOC

	NumOutcomes = 4
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeSymptom:
		return "symptom"
	case OutcomeDetected:
		return "detected"
	case OutcomeMasked:
		return "masked"
	case OutcomeSOC:
		return "SOC"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Verifier decides whether a completed faulty run's output is
// acceptable (true = no SOC). It receives the golden (fault-free)
// result for reference-based checks such as the FFT L2 norm.
type Verifier func(golden, faulty *interp.Result) bool

// Classify maps a run result onto an outcome category.
func Classify(golden, res *interp.Result, verify Verifier) Outcome {
	switch {
	case res.Trap == interp.TrapDetected:
		return OutcomeDetected
	case res.Trap != interp.TrapNone:
		return OutcomeSymptom
	case verify(golden, res):
		return OutcomeMasked
	default:
		return OutcomeSOC
	}
}

// TrialStatus separates modeled fault outcomes from campaign
// infrastructure conditions (REFINE's distinction: faults of the
// injector harness must never be counted as faults of the application).
type TrialStatus uint8

const (
	// TrialCompleted means the trial ran and Outcome is valid. It is
	// the zero value so a plainly constructed Trial is a completed one.
	TrialCompleted TrialStatus = iota
	// TrialFailed means every attempt hit an infrastructure error
	// (worker panic, pre-injection trap, plan that never fired); Err
	// holds the last error and the trial carries no outcome.
	TrialFailed
	// TrialPending means the trial was never executed (campaign
	// cancelled before its turn); it is re-run on resume.
	TrialPending
)

// String names the status.
func (s TrialStatus) String() string {
	switch s {
	case TrialCompleted:
		return "completed"
	case TrialFailed:
		return "failed"
	case TrialPending:
		return "pending"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Trial records one injection.
type Trial struct {
	// Site is the static instruction (SiteID) the fault landed on.
	Site int `json:"site"`
	// Bit is the *effective* flipped bit position: the plan's raw draw
	// reduced modulo the victim value's width at injection time (a plan
	// bit of 37 landing on an i1 comparison flips bit 0, and that is
	// what gets recorded). For multi-bit corruptions it is the lowest
	// set bit of Mask; -1 when the folded mask cancelled to zero (the
	// plan fired but left the value unchanged). Pending trials hold the
	// plan's raw bit until they execute.
	Bit int `json:"bit"`
	// Mask is the effective corruption mask the injection XORed into the
	// value's bit pattern, in the value's own width. Zero — and omitted,
	// keeping single-bit journal lines byte-identical to the v1 format —
	// when the corruption was the single flip 1<<Bit.
	Mask uint64 `json:"mask,omitempty"`
	// Index is the dynamic injectable-instance index targeted.
	Index int64 `json:"index"`
	// Outcome is the classified result (valid only when Status is
	// TrialCompleted).
	Outcome Outcome `json:"outcome"`
	// Latency is the number of dynamic instructions the injected rank
	// executed between the bit flip and the run's termination — the
	// error-detection latency for Detected/Symptom outcomes, and the
	// residual run length for Masked/SOC (§2.1: duplication detects
	// "close to the occurrence", enabling recent checkpoints).
	Latency int64 `json:"latency"`
	// Deadlock carries the rank supervisor's structural-deadlock
	// attribution (one line, per-rank detail) when the injected fault
	// hung the job. Empty for every other outcome. Deterministic: the
	// report is a pure function of the program and plan, so resumed
	// campaigns restore the identical string.
	Deadlock string `json:"deadlock,omitempty"`
	// Status partitions trials into completed / failed / pending.
	Status TrialStatus `json:"status,omitempty"`
	// Err is the last infrastructure error when Status is TrialFailed.
	Err string `json:"err,omitempty"`
	// Attempts counts executions performed for this trial (1 = no
	// retries were needed).
	Attempts int `json:"attempts,omitempty"`
}

// CampaignResult aggregates a statistical fault-injection campaign. It
// degrades gracefully: Trials always holds one slot per planned trial,
// Completed/Failed/Pending partition them, and the outcome statistics
// (Counts, Proportion, MeanLatency) are computed over completed trials
// only.
type CampaignResult struct {
	Trials []Trial
	// Counts tallies completed trials per outcome.
	Counts [NumOutcomes]int
	// Composed, when non-nil, is a sectioned campaign's
	// population-weighted whole-program outcome distribution
	// (internal/compose; core.CampaignControls.Run sets it). Proportion
	// reports it instead of Counts' raw shares, which overweight the
	// sections whose trial budgets are large relative to their
	// populations.
	Composed *[NumOutcomes]float64
	// GoldenDyn is the fault-free total dynamic instruction count.
	GoldenDyn int64
	// Completed, Failed and Pending partition Trials by status.
	Completed int
	Failed    int
	Pending   int
	// Deadlocks counts completed trials whose injected fault hung the
	// job (structural deadlock declared by the rank supervisor); each
	// such trial carries the attribution in Trial.Deadlock.
	Deadlocks int
}

// Proportion returns the estimated probability of outcome o: the
// fraction of completed trials with outcome o, or the composed
// estimate of a sectioned campaign when Composed is set.
func (c *CampaignResult) Proportion(o Outcome) float64 {
	if c.Composed != nil {
		return c.Composed[o]
	}
	if c.Completed == 0 {
		return 0
	}
	return float64(c.Counts[o]) / float64(c.Completed)
}

// MeanLatency returns the average injection-to-termination latency (in
// dynamic instructions) over completed trials with outcome o, or -1
// when none.
func (c *CampaignResult) MeanLatency(o Outcome) float64 {
	var sum float64
	n := 0
	for _, tr := range c.Trials {
		if tr.Status == TrialCompleted && tr.Outcome == o {
			sum += float64(tr.Latency)
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// ErrorSummary renders a short human-readable account of trials that
// did not complete ("" when every trial completed). At most three
// distinct error messages are spelled out.
func (c *CampaignResult) ErrorSummary() string {
	if c.Failed == 0 && c.Pending == 0 {
		return ""
	}
	s := fmt.Sprintf("%d/%d trials completed", c.Completed, len(c.Trials))
	if c.Failed > 0 {
		s += fmt.Sprintf(", %d failed", c.Failed)
		shown := 0
		for t, tr := range c.Trials {
			if tr.Status != TrialFailed {
				continue
			}
			if shown == 3 {
				s += ", ..."
				break
			}
			s += fmt.Sprintf(" [trial %d after %d attempts: %s]", t, tr.Attempts, tr.Err)
			shown++
		}
	}
	if c.Pending > 0 {
		s += fmt.Sprintf(", %d pending (cancelled before execution)", c.Pending)
	}
	return s
}

// Campaign drives statistical fault injection against one program.
type Campaign struct {
	// Prog must be compiled with fault.Injectable as its injectable
	// predicate (see Compile).
	Prog *interp.Program
	// Verify is the application's output verification routine.
	Verify Verifier
	// Config is the base execution configuration; the campaign adds
	// the fault plan and hang budget per trial.
	Config interp.Config
	// HangFactor multiplies the golden dynamic count to form the
	// hang-detection budget (default 10). Prepare refuses a factor whose
	// budget overflows int64; the journal header pins a non-default one.
	HangFactor int64
	// Seed makes the campaign deterministic.
	Seed int64
	// Model selects the injection strategy each trial's plan is drawn
	// with (nil = SingleBit, the paper's model). The model's name rides
	// journal headers and campaign specs, so resuming or remotely
	// executing a campaign under a different model fails with
	// ErrCampaignMismatch instead of mixing incompatible trial spaces.
	Model ErrorModel
	// Sections partitions the trial space by IR section (FastFlip-style
	// compositional analysis): the golden run captures per-section
	// boundary state, each section gets its own deterministic trial
	// allocation sized by Coverage, plans carry section targets, and
	// trials that return to the golden boundary state stop early as
	// Masked. The allocation replaces RunContext's trial count.
	// Requires Ranks == 1 and AssignSiteIDs on the module.
	Sections bool
	// Coverage is the per-site dynamic-occurrence coverage target k for
	// sectioned campaigns: section s receives
	// ceil(k * pop_s / dmin_s) trials, where pop_s is its injectable
	// instance population and dmin_s the dynamic count of its rarest
	// exercised site — enough uniform draws to hit every site about k
	// times in expectation. Required (>= 1) when Sections is set.
	Coverage int
	// MaxPerSection caps one section's trial allocation (test and
	// smoke-run budgets); 0 = uncapped. Capping trades per-site
	// coverage in hot sections for bounded wall clock; the analytic
	// trial-count comparison (SectionPlan.MonoTrials) always uses the
	// uncapped numbers.
	MaxPerSection int
	// Workers bounds concurrent trial execution (default: GOMAXPROCS).
	// Trials are independent interpreter runs and the plan sequence is
	// drawn up front, so results are identical for any worker count.
	Workers int
	// Journal, when non-nil, receives every finished trial as it
	// completes and seeds resume: trials already recorded are restored
	// instead of re-executed. Because the plan sequence is drawn up
	// front from Seed, a resumed campaign is bit-identical to an
	// uninterrupted one.
	Journal *Journal
	// Progress, when non-nil, is invoked (serialized) after every
	// finished trial with the number done so far (including restored
	// ones), the total, the infrastructure-failure count, and the
	// count of trials whose fault deadlocked the job.
	Progress func(done, total, failed, deadlocked int)

	// GoldenCache overrides the golden-run cache consulted by Prepare
	// (nil selects SharedGoldenCache). Campaigns over the same program
	// content and execution configuration then share one golden run —
	// outputs, instruction counts, per-site counts and section boundary
	// digests are computed once per (workload, input), not once per
	// campaign or shard. The cached Result is shared and must be
	// treated as immutable.
	GoldenCache *GoldenCache
	// NoGoldenCache opts this campaign out of golden-run caching: its
	// golden run is always recomputed and never published.
	NoGoldenCache bool

	// beforeTrial is a test hook called at the start of every trial
	// attempt; panics it raises exercise the worker isolation path.
	beforeTrial func(t, attempt int)
}

// trialRetries is how many times a trial is re-executed after an
// infrastructure error (a worker panic, a trap raised before the fault
// injected, a plan that never fired, an MPI watchdog expiry), so a
// trial gets up to three attempts; after the last it is recorded as
// TrialFailed instead of aborting the campaign.
const trialRetries = 2

// retryBackoff is the base delay before re-running a failed trial:
// retry k waits BackoffDelay(retryBackoff, k), and cancellation
// interrupts the wait.
const retryBackoff = 10 * time.Millisecond

// MaxBackoff bounds every retry delay, a trial's and a coordinator
// shard's.
const MaxBackoff = time.Hour

// BackoffDelay computes the delay after failed attempt k (k >= 1):
// base << (k-1), clamped to MaxBackoff. The clamp is what keeps an
// arbitrary retry budget safe — an unchecked shift overflows
// time.Duration into a zero, negative, or wrapped-tiny delay, and far
// below that it already waits for days. Doubling below the clamp can
// never overflow.
func BackoffDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for k := 1; k < attempt && d < MaxBackoff; k++ {
		d <<= 1
	}
	return min(d, MaxBackoff)
}

// DefaultHangFactor is the hang factor a zero or negative
// Campaign.HangFactor selects.
const DefaultHangFactor = 10

// hangFactor resolves the HangFactor convention into a concrete factor.
func (c *Campaign) hangFactor() int64 {
	if c.HangFactor <= 0 {
		return DefaultHangFactor
	}
	return c.HangFactor
}

// Compile compiles a module for fault injection.
func Compile(m *ir.Module) (*interp.Program, error) {
	return interp.Compile(m, Injectable)
}

// Run executes the golden run plus n injection trials.
func (c *Campaign) Run(n int) (*CampaignResult, error) {
	return c.RunContext(context.Background(), n)
}

// errCancelled marks a trial attempt interrupted by context
// cancellation; the trial stays pending (re-run on resume) rather than
// being charged a retry.
var errCancelled = errors.New("fault: trial cancelled")

// Prepared binds a campaign to its golden run: the immutable substrate
// every trial executes against. RunContext prepares and runs in one
// call; RunSections and the coordinator's workers (internal/campaign)
// prepare once and then execute trials by index, which is sound
// because Plans is a pure function of (Seed, trial index) and RunTrial
// touches only shared-immutable state.
type Prepared struct {
	c *Campaign
	// Golden is the fault-free reference result.
	Golden *interp.Result
	// Population is the injectable dynamic-instance count on rank 0 —
	// the sampling population every plan draws from.
	Population int64

	// GoldenCached reports that Golden was served from the golden-run
	// cache rather than executed by this Prepare.
	GoldenCached bool

	budget int64

	// secs is the sectioned-campaign substrate (nil for plain
	// campaigns): the per-section trial allocation and the trial
	// configuration armed with the golden boundary trace.
	secs *SectionPlan

	// snaps holds the golden-run snapshots every trial resumes from
	// (see snapshots), captured section-tracked for a sectioned
	// substrate; nil until the first trial, and for good when the
	// configuration has none (more than one rank, site counting).
	snapOnce sync.Once
	snaps    *interp.Snapshots
}

// SectionPlan returns the sectioned substrate, nil for plain campaigns.
func (p *Prepared) SectionPlan() *SectionPlan { return p.secs }

// SectionTotal returns the sectioned campaign's total trial count (the
// sum of per-section allocations); 0 for plain campaigns. Coordinators
// that size shard ranges from a trial count call this after Prepare.
func (p *Prepared) SectionTotal() int {
	if p.secs == nil {
		return 0
	}
	return p.secs.Total
}

// Prepare performs the golden run and resolves the campaign's knobs,
// returning the substrate trials execute against.
//
// The golden run carries no instrumentation, so it executes on the
// interpreter's fast loop; that loop still counts injectable instances
// (Result.Injectable) precisely because Prepare sizes the sampling
// population from it. Armed trials count instances with the same
// compile-time injectable predicate on the full loop, which they leave
// after the flip, so an Index drawn here names the same dynamic
// instance there.
func (c *Campaign) Prepare(ctx context.Context) (*Prepared, error) {
	if c.Sections {
		if c.Config.Ranks > 1 {
			return nil, fmt.Errorf("fault: sectioned campaigns require Ranks == 1 (got %d)", c.Config.Ranks)
		}
		if c.Coverage < 1 {
			return nil, fmt.Errorf("fault: sectioned campaign needs Coverage >= 1 (got %d)", c.Coverage)
		}
	}

	// compute executes the golden run (sectioned golden runs also
	// capture boundary digests and per-site dynamic counts — the
	// allocation inputs — on the same run) and is invoked only on a
	// cache miss, or directly when caching is off.
	compute := func() (*interp.Result, error) {
		cfg := c.Config
		if c.Sections {
			cfg.Sections = &interp.SectionConfig{}
			cfg.CountSites = true
		}
		golden := interp.RunContext(ctx, c.Prog, cfg)
		if golden.Trap == interp.TrapCancelled || ctx.Err() != nil {
			return nil, fmt.Errorf("fault: golden run cancelled: %w", ctx.Err())
		}
		if golden.Trap != interp.TrapNone {
			return nil, fmt.Errorf("fault: golden run trapped: %v (%s)", golden.Trap, golden.TrapMsg)
		}
		return golden, nil
	}

	gc := c.GoldenCache
	if gc == nil && !c.NoGoldenCache {
		gc = SharedGoldenCache
	}
	var (
		golden *interp.Result
		cached bool
		err    error
	)
	if gc != nil {
		norm := c.Config.WithDefaults()
		key := goldenKey{
			progFP:    c.Prog.Fingerprint(),
			ranks:     norm.Ranks,
			heap:      norm.HeapBytes,
			maxInstrs: norm.MaxInstrs,
			sectioned: c.Sections,
		}
		golden, cached, err = gc.goldenRun(ctx, key, compute)
	} else {
		golden, err = compute()
	}
	if err != nil {
		return nil, err
	}
	pop := golden.Injectable[0]
	if pop == 0 {
		return nil, fmt.Errorf("fault: program has no injectable dynamic instances")
	}
	// The budget leaves a fixed slack over the scaled golden count; a
	// budget that overflowed would read as no budget at all.
	const slack = 1_000_000
	hang := c.hangFactor()
	if golden.MaxRankDyn > (math.MaxInt64-slack)/hang {
		return nil, fmt.Errorf("fault: hang factor %d overflows the instruction budget of a %d-instruction golden run", hang, golden.MaxRankDyn)
	}
	p := &Prepared{
		c:            c,
		Golden:       golden,
		Population:   pop,
		GoldenCached: cached,
		budget:       golden.MaxRankDyn*hang + slack,
	}
	if c.Sections {
		sp, err := newSectionPlan(c, golden)
		if err != nil {
			return nil, err
		}
		p.secs = sp
	}
	return p, nil
}

// Plans draws the campaign's first n fault plans up front so results
// do not depend on worker scheduling — this is also what makes
// checkpoint/resume bit-identical and sharding a pure index partition:
// trial t's plan is a pure function of (Seed, t).
func (p *Prepared) Plans(n int) []interp.FaultPlan {
	if p.secs != nil {
		return p.secs.plans(n)
	}
	rng := rand.New(rand.NewSource(p.c.Seed))
	model := p.c.model()
	plans := make([]interp.FaultPlan, n)
	for t := range plans {
		// Index first, then the model's draws, all from one sequential
		// stream: the single-bit model consumes exactly the historical
		// rng.Intn(64), so its plans match pre-model journals bit for
		// bit.
		plans[t] = interp.FaultPlan{Rank: 0, Index: rng.Int63n(p.Population)}
		model.Draw(rng, &plans[t])
	}
	return plans
}

// Meta fingerprints an n-trial campaign over this substrate for
// journal validation. ProgramFP pins the whole program: a trial's
// outcome is the end-to-end classification of the verified output, so
// it depends on every instruction, and no journal may outlive an edit.
func (p *Prepared) Meta(n int) JournalMeta {
	m := JournalMeta{
		Format: JournalFormat, Seed: p.c.Seed, Trials: n,
		GoldenDyn: p.Golden.TotalDyn, Population: p.Population,
		Model: ModelName(p.c.Model), ProgramFP: p.c.Prog.Fingerprint(),
	}
	if hang := p.c.hangFactor(); hang != DefaultHangFactor {
		m.HangFactor = hang
	}
	if p.secs != nil {
		// The distinct format makes a sectioned journal refuse a plain
		// campaign (and vice versa) with ErrCampaignMismatch instead of
		// misreading one trial space as the other.
		m.Format = JournalFormatSectioned
	}
	return m
}

// NewResult allocates a result with one pending trial per plan.
func (p *Prepared) NewResult(plans []interp.FaultPlan) *CampaignResult {
	out := &CampaignResult{GoldenDyn: p.Golden.TotalDyn, Trials: make([]Trial, len(plans))}
	for t := range out.Trials {
		out.Trials[t] = Trial{Site: -1, Bit: plans[t].Bit, Index: plans[t].Index, Status: TrialPending}
	}
	return out
}

// Finalize recomputes the status partition and outcome statistics from
// Trials and returns the joined per-trial infrastructure errors (nil
// when every trial completed). Engines call it once after execution
// stops; it is idempotent.
func (r *CampaignResult) Finalize() error {
	r.Completed, r.Failed, r.Pending, r.Deadlocks = 0, 0, 0, 0
	r.Counts = [NumOutcomes]int{}
	var errs []error
	for t := range r.Trials {
		switch r.Trials[t].Status {
		case TrialCompleted:
			r.Completed++
			r.Counts[r.Trials[t].Outcome]++
			if r.Trials[t].Deadlock != "" {
				r.Deadlocks++
			}
		case TrialFailed:
			r.Failed++
			errs = append(errs, fmt.Errorf("fault: trial %d failed after %d attempts: %s",
				t, r.Trials[t].Attempts, r.Trials[t].Err))
		case TrialPending:
			r.Pending++
		}
	}
	return errors.Join(errs...)
}

// RunContext executes the golden run plus n injection trials, honoring
// ctx for cancellation and deadlines.
//
// The engine is resilient: every trial attempt runs with panic
// isolation, infrastructure errors are retried twice with exponential
// backoff, and a trial that still fails is recorded as TrialFailed
// instead of aborting the campaign. On cancellation the
// partial result is returned together with ctx.Err(); unexecuted
// trials stay TrialPending. When any trial failed, the (complete)
// result is returned together with the joined per-trial errors.
//
// A non-nil result always accounts for all n trials — for a sectioned
// campaign, its whole allocation, which replaces n; inspect
// Completed/Failed/Pending (or ErrorSummary) to see how the campaign
// degraded. To spread the same trial space over worker processes see
// internal/campaign.
func (c *Campaign) RunContext(ctx context.Context, n int) (*CampaignResult, error) {
	p, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	if p.secs != nil {
		n = p.secs.Total
	}
	return p.run(ctx, n, c.Journal)
}

// run is the one path behind RunContext and RunSections: bind the
// journal j (when non-nil) to this n-trial campaign, restore the
// trials it already holds — its header pins seed, trial count, program
// and model, so restored plans line up — and execute the rest.
func (p *Prepared) run(ctx context.Context, n int, j *Journal) (*CampaignResult, error) {
	plans := p.Plans(n)
	out := p.NewResult(plans)
	var record func(t int, tr Trial) error
	if j != nil {
		prev, err := j.Begin(p.Meta(n))
		if err != nil {
			return nil, err
		}
		for t, tr := range prev {
			out.Trials[t] = tr
		}
		record = j.Record
	}
	return out, p.execute(ctx, plans, out, record)
}

// execute is the executor behind run: a pool of Workers goroutines
// over out's still-pending trials. Every finished
// trial takes one serialized path — its result slot, record (the
// journal write, when record is non-nil), the failed/deadlocked
// tallies, and Progress, whose counts include the trials restored
// before the call. It finalizes out and returns the trial, journal and
// context errors joined (nil when every trial completed); a cancelled
// campaign leaves its unexecuted trials pending.
func (p *Prepared) execute(ctx context.Context, plans []interp.FaultPlan, out *CampaignResult, record func(t int, tr Trial) error) error {
	var done, failed, deadlocked int
	for _, tr := range out.Trials {
		if tr.Status != TrialPending {
			done++
		}
		if tr.Status == TrialFailed {
			failed++
		}
		if tr.Deadlock != "" {
			deadlocked++
		}
	}
	workers := p.c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(out.Trials)-done)

	var (
		mu         sync.Mutex
		journalErr error
	)
	finish := func(t int, tr Trial) {
		mu.Lock()
		defer mu.Unlock()
		out.Trials[t] = tr
		done++
		if tr.Status == TrialFailed {
			failed++
		}
		if tr.Deadlock != "" {
			deadlocked++
		}
		if record != nil {
			if err := record(t, tr); err != nil && journalErr == nil {
				journalErr = err
			}
		}
		if p.c.Progress != nil {
			p.c.Progress(done, len(out.Trials), failed, deadlocked)
		}
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				// A still-pending trial was cancelled mid-run; it
				// re-runs on resume.
				if tr := p.RunTrial(ctx, t, plans[t]); tr.Status != TrialPending {
					finish(t, tr)
				}
			}
		}()
	}
feed:
	for t := range out.Trials {
		if out.Trials[t].Status != TrialPending {
			continue // restored from a journal
		}
		select {
		case next <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	errs := []error{out.Finalize(), ctx.Err()}
	if journalErr != nil {
		errs = append(errs, fmt.Errorf("fault: journal write: %w", journalErr))
	}
	return errors.Join(errs...)
}

// RunTrial executes trial t under its plan with panic isolation and
// bounded retry-with-backoff; a still-pending result means ctx was
// cancelled. Safe for concurrent use: trials share only the immutable
// golden result and program.
func (p *Prepared) RunTrial(ctx context.Context, t int, plan interp.FaultPlan) Trial {
	pending := Trial{Site: -1, Bit: plan.Bit, Index: plan.Index, Status: TrialPending}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= trialRetries; attempt++ {
		if ctx.Err() != nil {
			return pending
		}
		if attempt > 0 {
			select {
			case <-time.After(BackoffDelay(retryBackoff, attempt)):
			case <-ctx.Done():
				return pending
			}
		}
		attempts++
		tr, err := p.attemptTrial(ctx, t, plan, attempt)
		if err == nil {
			tr.Attempts = attempts
			return tr
		}
		if errors.Is(err, errCancelled) {
			return pending
		}
		lastErr = err
	}
	pending.Status = TrialFailed
	pending.Err = lastErr.Error()
	pending.Attempts = attempts
	return pending
}

// attemptTrial performs a single isolated execution of one trial; any
// panic in the interpreter or the user's verification routine is
// converted into an infrastructure error.
func (p *Prepared) attemptTrial(ctx context.Context, t int, plan interp.FaultPlan, attempt int) (tr Trial, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = fmt.Errorf("worker panic: %v", pv)
		}
	}()
	c := p.c
	if c.beforeTrial != nil {
		c.beforeTrial(t, attempt)
	}
	cfg := p.config()
	cfg.Fault = &plan
	cfg.MaxInstrs = p.budget
	cfg.Resume = p.snapshots(ctx)
	res := interp.RunContext(ctx, c.Prog, cfg)
	return trialFromResult(plan, p.Golden, res, c.Verify)
}

// config returns the configuration every trial of the substrate runs
// under, before its plan and budget: the campaign's, with section
// targeting and the early-masked exit armed against the golden
// boundary trace for a sectioned campaign.
func (p *Prepared) config() interp.Config {
	cfg := p.c.Config
	if p.secs != nil {
		cfg.Sections = p.secs.trialCfg
	}
	return cfg
}

// snapshots returns the golden-run snapshots trials start from instead
// of instruction zero, capturing them on the first call: one fault-free
// run on the instrumented loop, section-tracked for a sectioned
// substrate, paid by the first trial rather than by Prepare, so a
// campaign that never runs a trial (or an admission-time Prepare) costs
// nothing extra. The capture ignores the trial's cancellation — it is
// one golden run long, and a cancelled capture would leave every later
// trial of this substrate without snapshots.
func (p *Prepared) snapshots(ctx context.Context) *interp.Snapshots {
	p.snapOnce.Do(func() {
		p.snaps = interp.CaptureSnapshots(context.WithoutCancel(ctx), p.c.Prog, p.config(), p.Golden.TotalDyn)
	})
	return p.snaps
}

// trialFromResult converts one interpreter run into a completed Trial
// or an infrastructure error. A run that terminates — cleanly or with
// a trap — before its fault ever injected observed no modeled fault:
// classifying such a trap as a symptom would corrupt the outcome
// statistics, so both cases are errors of the harness, retried and
// ultimately reported as TrialFailed rather than counted.
func trialFromResult(plan interp.FaultPlan, golden, res *interp.Result, verify Verifier) (Trial, error) {
	switch {
	case res.Trap == interp.TrapCancelled:
		return Trial{}, errCancelled
	case res.Trap == interp.TrapWatchdog:
		// The defense-in-depth wall-clock watchdog fired. Genuine
		// deadlocks are detected structurally (TrapDeadlock), so this
		// is a harness malfunction or host overload: retry, never
		// classify.
		return Trial{}, fmt.Errorf("infrastructure watchdog expired (%s)", res.TrapMsg)
	case !res.Injected && res.Trap == interp.TrapNone:
		return Trial{}, fmt.Errorf("did not inject (index %d never reached)", plan.Index)
	case !res.Injected:
		return Trial{}, fmt.Errorf("pre-injection trap %v (%s)", res.Trap, res.TrapMsg)
	case res.EarlyMasked:
		// The run stopped at a section boundary whose state digest
		// matched the golden run: the suffix would replay the fault-free
		// execution verbatim, so the trial is Masked by construction.
		// Outputs are truncated at the stop point — verification must
		// not run (it would misread the truncation as corruption).
		bit, mask := effectiveBitMask(res.InjectedMask)
		return Trial{
			Site:    res.InjectedSite,
			Bit:     bit,
			Mask:    mask,
			Index:   plan.Index,
			Outcome: OutcomeMasked,
			Latency: res.InjectedRankDyn - res.InjectedAt,
		}, nil
	}
	bit, mask := effectiveBitMask(res.InjectedMask)
	tr := Trial{
		Site:    res.InjectedSite,
		Bit:     bit,
		Mask:    mask,
		Index:   plan.Index,
		Outcome: Classify(golden, res, verify),
		Latency: res.InjectedRankDyn - res.InjectedAt,
	}
	if res.Trap == interp.TrapDeadlock && res.Deadlock != nil {
		tr.Deadlock = res.Deadlock.Summary()
	}
	return tr, nil
}

// effectiveBitMask renders the interpreter's effective corruption mask
// into Trial fields: a single-bit corruption records only its position
// (Mask 0 keeps the v1 journal line format); a multi-bit one records the
// full mask plus its lowest position; an empty mask — folded raw bits
// cancelled — records Bit -1.
func effectiveBitMask(eff uint64) (bit int, mask uint64) {
	switch {
	case eff == 0:
		return -1, 0
	case eff&(eff-1) == 0:
		return mbits.TrailingZeros64(eff), 0
	default:
		return mbits.TrailingZeros64(eff), eff
	}
}
