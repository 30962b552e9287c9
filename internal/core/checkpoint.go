package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ipas/internal/campaign"
	"ipas/internal/compose"
	"ipas/internal/fault"
	"ipas/internal/svm"
)

// CampaignControls carries the resilience knobs threaded into every
// fault-injection campaign the workflow runs: worker bound, error
// model, progress reporting, sections and checkpointing. Every trial
// retries an infrastructure error twice, whichever route it takes.
type CampaignControls struct {
	// Workers bounds concurrent trials per campaign (0 = GOMAXPROCS).
	Workers int
	// Shards is the coordinator's partition count for campaigns
	// dispatched to Remote (0 = one shard): the trial space splits
	// into this many leases across its workers. Results are
	// bit-identical for every value. Local campaigns have no shards,
	// so Shards > 1 without Remote is a usage error.
	Shards int
	// Model selects the error model every campaign's plans are drawn
	// with (nil = single-bit, the paper's model). It rides journal
	// headers and remote specs, so checkpoints and coordinators refuse
	// to mix trials across models.
	Model fault.ErrorModel
	// TrainWorkers bounds concurrent grid-point evaluations during SVM
	// training (0 = GOMAXPROCS). Training results are bit-identical for
	// any worker count.
	TrainWorkers int
	// Remote, when non-nil together with RemoteSpec, dispatches
	// eligible campaigns to a campaignd coordinator instead of running
	// them in-process.
	Remote *campaign.Client
	// RemoteSpec renders a stage as a remote campaign spec, or nil to
	// run that stage locally (graceful degradation: stages a spec
	// cannot express — protected variants do not round-trip through
	// source text — just stay in-process). The returned spec names the
	// program (workload/input or inline source); Run fills everything
	// else from the configured campaign (campaign.Spec.Fill) and the
	// shard count from Shards, so remote trials are bit-identical to
	// local ones.
	RemoteSpec func(stage string) *campaign.Spec
	// Progress, when non-nil, receives per-campaign progress: stage
	// names the campaign ("collect", "eval IPAS-1", ...), done/total
	// count trials, failed counts infrastructure failures, and
	// deadlocked counts trials whose injected fault hung the job
	// (structural deadlock declared by the MPI rank supervisor).
	Progress func(stage string, done, total, failed, deadlocked int)
	// Checkpoint, when non-nil, supplies one trial journal per
	// campaign so an interrupted workflow resumes from disk.
	Checkpoint *Checkpoint
	// Sections, when true, runs eligible campaigns (single-rank) as
	// sectioned campaigns: the trial space stratifies over IR sections
	// and per-section budgets replace the flat trial count. A sectioned
	// stage checkpoints into its ordinary stage journal. Multi-rank
	// campaigns degrade gracefully to plain ones.
	Sections bool
	// SectionCoverage is the per-section coverage factor (expected
	// injections per exercised site); 0 means 1.
	SectionCoverage int
	// MaxPerSection caps any one section's trial budget (0 = engine
	// default).
	MaxPerSection int
}

// Run executes the golden run plus n injection trials of campaign c
// under the controls — sectioned when Sections applies, where the
// per-section allocation replaces n — on the coordinator when
// RemoteSpec renders the stage, else in-process with the stage's
// journal. Every route gets the same knobs (worker bound, error model,
// stage-tagged progress), and results match the
// local run trial for trial. A sectioned result's Proportion is the
// population-weighted composition of its strata (internal/compose),
// never the raw trial shares.
func (cc *CampaignControls) Run(ctx context.Context, c *fault.Campaign, n int, stage string) (*fault.CampaignResult, error) {
	if cc == nil {
		return c.RunContext(ctx, n)
	}
	if cc.Shards > 1 && cc.Remote == nil {
		return nil, fmt.Errorf("core: Shards=%d partitions campaigns dispatched to a coordinator; set Remote or leave Shards at 0", cc.Shards)
	}
	c.Workers = cc.Workers
	if cc.Model != nil {
		c.Model = cc.Model
	}
	if cc.Progress != nil {
		report := cc.Progress
		c.Progress = func(done, total, failed, deadlocked int) { report(stage, done, total, failed, deadlocked) }
	}
	if cc.Sections && c.Config.Ranks <= 1 {
		c.Sections = true
		c.Coverage = max(cc.SectionCoverage, 1)
		c.MaxPerSection = cc.MaxPerSection
	}
	res, err := cc.dispatch(ctx, c, n, stage)
	if res == nil || !c.Sections || ctx.Err() != nil {
		return res, err
	}
	if cerr := composeSections(ctx, c, res); cerr != nil {
		return nil, fmt.Errorf("core: composing %s: %w", stage, cerr)
	}
	return res, err
}

// dispatch runs the configured campaign on the coordinator when
// RemoteSpec renders the stage, else in-process with the stage's
// journal.
func (cc *CampaignControls) dispatch(ctx context.Context, c *fault.Campaign, n int, stage string) (*fault.CampaignResult, error) {
	if cc.Remote != nil && cc.RemoteSpec != nil {
		if spec := cc.RemoteSpec(stage); spec != nil {
			return cc.runRemote(ctx, c, *spec, n, stage)
		}
	}
	if cc.Checkpoint != nil {
		j, err := cc.Checkpoint.Journal(stage)
		if err != nil {
			return nil, err
		}
		c.Journal = j
	}
	return c.RunContext(ctx, n)
}

// composeSections sets res.Composed from the strata of sectioned
// campaign c. A stratum with no completed trials is compose.Whole's
// error; there is no fallback to raw shares. The section plan is
// re-derived from c, a golden-cache hit after a local run, so local
// and remote results compose alike.
func composeSections(ctx context.Context, c *fault.Campaign, res *fault.CampaignResult) error {
	prep, err := c.Prepare(ctx)
	if err != nil {
		return err
	}
	d, err := compose.Whole(compose.FromSectionResult(prep.SectionResult(res)))
	if err != nil {
		return err
	}
	composed := [fault.NumOutcomes]float64(d)
	res.Composed = &composed
	return nil
}

// runRemote dispatches one configured campaign to the coordinator and
// polls it to completion. The spec from RemoteSpec names the program;
// Fill copies every knob that pins the plan sequence and per-trial
// behavior from c, so the coordinator's workers reproduce the local
// engine's trials bit for bit.
func (cc *CampaignControls) runRemote(ctx context.Context, c *fault.Campaign, s campaign.Spec, n int, stage string) (*fault.CampaignResult, error) {
	if s.Shards == 0 {
		s.Shards = cc.Shards
	}
	s.Fill(c, n)
	sub, _, err := cc.Remote.Submit(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("core: submitting %s to coordinator: %w", stage, err)
	}
	var onProgress func(campaign.Progress)
	if c.Progress != nil {
		onProgress = func(p campaign.Progress) { c.Progress(p.Done, p.Trials, p.Failed, p.Deadlocked) }
	}
	res, err := cc.Remote.WaitResult(ctx, sub.ID, 0, onProgress)
	if err != nil {
		return nil, fmt.Errorf("core: waiting for %s (campaign %s): %w", stage, sub.ID, err)
	}
	if c.Progress != nil {
		c.Progress(res.Completed+res.Failed, len(res.Trials), res.Failed, res.Deadlocks)
	}
	// Match the local engines' contract: per-trial infrastructure
	// failures come back as a joined error beside the complete result.
	if err := res.Finalize(); err != nil {
		return res, err
	}
	return res, nil
}

// SearchOptions renders the controls' training knobs as grid-search
// options, routing per-grid-point progress into Progress under the
// given stage name (training has no failed or deadlocked trials, so
// those counts are 0).
func (cc *CampaignControls) SearchOptions(stage string) svm.SearchOptions {
	if cc == nil {
		return svm.SearchOptions{}
	}
	opts := svm.SearchOptions{Workers: cc.TrainWorkers}
	if cc.Progress != nil {
		report := cc.Progress
		opts.Progress = func(done, total int) { report(stage, done, total, 0, 0) }
	}
	return opts
}

// Checkpoint manages the journal directory of a workflow run: one
// JSONL trial journal per campaign (the collection campaign plus every
// variant's coverage evaluation), named after the campaign's stage.
// Because every campaign draws its plans up front from its seed, a
// workflow resumed from a checkpoint directory produces results
// bit-identical to an uninterrupted run.
type Checkpoint struct {
	// Dir is the journal directory (created on first use).
	Dir string
	// Resume permits reuse of journals that already contain trials.
	// Without it, opening a non-empty journal is an error — a guard
	// against accidentally mixing two different runs' checkpoints.
	Resume bool

	mu   sync.Mutex
	open map[string]*fault.Journal
	subs map[string]*Checkpoint
}

// NewCheckpoint creates the journal directory and returns a checkpoint
// manager rooted there.
func NewCheckpoint(dir string, resume bool) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &Checkpoint{Dir: dir, Resume: resume}, nil
}

// Sub returns a checkpoint rooted in a subdirectory, scoping (say) one
// workload's campaigns inside a suite-level checkpoint so their stage
// names cannot collide. The parent's Close closes the sub's journals.
func (c *Checkpoint) Sub(name string) *Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.subs == nil {
		c.subs = map[string]*Checkpoint{}
	}
	key := stageFileName(name)
	if s, ok := c.subs[key]; ok {
		return s
	}
	s := &Checkpoint{Dir: filepath.Join(c.Dir, key), Resume: c.Resume}
	c.subs[key] = s
	return s
}

// Journal opens (once) the journal for the named campaign stage.
func (c *Checkpoint) Journal(stage string) (*fault.Journal, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open == nil {
		c.open = map[string]*fault.Journal{}
	}
	if j, ok := c.open[stage]; ok {
		return j, nil
	}
	if err := c.refuseLegacy(stage); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	j, err := OpenJournal(filepath.Join(c.Dir, stageFileName(stage)+".jsonl"), c.Resume)
	if err != nil {
		return nil, err
	}
	c.open[stage] = j
	return j, nil
}

// OpenJournal opens the trial journal at path. A journal that already
// holds trials opens only with resume set, a guard against silently
// mixing two runs' trials.
func OpenJournal(path string, resume bool) (*fault.Journal, error) {
	j, err := fault.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if j.Restored() > 0 && !resume {
		j.Close()
		return nil, fmt.Errorf("core: journal %s already holds %d trials; pass -resume to continue it (or start a fresh one)",
			path, j.Restored())
	}
	return j, nil
}

// refuseLegacy fails for a stage checkpointed in a layout of older
// builds: the in-process sharded engine's "<stage>.shards/" or the
// per-section journals of "<stage>.sections/". No run path reads
// either any more, so carrying on would silently re-run their trials.
func (c *Checkpoint) refuseLegacy(stage string) error {
	for _, layout := range []string{"shards", "sections"} {
		dir := filepath.Join(c.Dir, stageFileName(stage)+"."+layout)
		if _, err := os.Stat(dir); err == nil {
			return fmt.Errorf("core: %s holds a checkpoint of an older build, which this one cannot resume: %w; finish it with that build or start a fresh checkpoint dir",
				dir, fault.ErrCampaignMismatch)
		}
	}
	return nil
}

// Close closes every journal the checkpoint opened. The files remain
// on disk for later resume.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.open {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range c.subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.open, c.subs = nil, nil
	return first
}

// stageFileName maps a stage label onto a safe file name.
func stageFileName(stage string) string {
	var sb strings.Builder
	for _, r := range stage {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	if sb.Len() == 0 {
		return "campaign"
	}
	return sb.String()
}
