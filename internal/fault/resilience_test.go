package fault

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipas/internal/interp"
	"ipas/internal/lang"
)

// compileCampaignProg compiles the shared test program and returns it
// with its exact-match verifier.
func compileCampaignProg(t *testing.T) (*interp.Program, Verifier) {
	t.Helper()
	m, err := lang.Compile(campaignProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(golden, faulty *interp.Result) bool {
		return len(faulty.OutputF) == 1 && faulty.OutputF[0] == golden.OutputF[0]
	}
	return p, verify
}

// A worker panic on one attempt must be retried, and the retried trial
// must produce the same outcome as an undisturbed campaign — only the
// attempt count differs.
func TestCampaignPanicIsolationRetries(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 40

	ref := &Campaign{Prog: p, Verify: verify, Seed: 11}
	refRes, err := ref.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	c := &Campaign{Prog: p, Verify: verify, Seed: 11, Workers: 2}
	c.beforeTrial = func(trial, attempt int) {
		if trial == 7 && attempt == 0 {
			panic("injected test panic")
		}
	}
	res, err := c.RunContext(context.Background(), n)
	if err != nil {
		t.Fatalf("campaign with one recovered panic errored: %v", err)
	}
	if res.Completed != n || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", res.Completed, res.Failed, n)
	}
	if got := res.Trials[7].Attempts; got != 2 {
		t.Fatalf("trial 7 attempts = %d, want 2", got)
	}
	for i := range res.Trials {
		got := res.Trials[i]
		got.Attempts = refRes.Trials[i].Attempts // only the retry count may differ
		if got != refRes.Trials[i] {
			t.Fatalf("trial %d diverged after retry: %+v vs %+v", i, res.Trials[i], refRes.Trials[i])
		}
	}
}

// A trial that panics on every attempt must be recorded as TrialFailed
// after all three attempts with the panic message, while the rest of
// the campaign completes and its statistics cover completed trials
// only.
func TestCampaignPanicIsolationExhaustsRetries(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 30

	c := &Campaign{Prog: p, Verify: verify, Seed: 13, Workers: 2}
	c.beforeTrial = func(trial, attempt int) {
		if trial == 3 {
			panic("persistent test panic")
		}
	}
	res, err := c.RunContext(context.Background(), n)
	if err == nil {
		t.Fatal("campaign with a permanently failing trial reported no error")
	}
	if !strings.Contains(err.Error(), "trial 3") || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("error does not identify the failed trial: %v", err)
	}
	if res == nil {
		t.Fatal("campaign with a failing trial must still return its result")
	}
	if res.Completed != n-1 || res.Failed != 1 || res.Pending != 0 {
		t.Fatalf("completed=%d failed=%d pending=%d, want %d/1/0", res.Completed, res.Failed, res.Pending, n-1)
	}
	tr := res.Trials[3]
	if tr.Status != TrialFailed || tr.Attempts != 3 || !strings.Contains(tr.Err, "persistent test panic") {
		t.Fatalf("failed trial recorded as %+v", tr)
	}
	total := 0
	for _, cnt := range res.Counts {
		total += cnt
	}
	if total != res.Completed {
		t.Fatalf("counts sum to %d, want completed=%d", total, res.Completed)
	}
	var sum float64
	for _, o := range []Outcome{OutcomeSymptom, OutcomeDetected, OutcomeMasked, OutcomeSOC} {
		sum += res.Proportion(o)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("proportions over completed trials sum to %v", sum)
	}
	if res.ErrorSummary() == "" {
		t.Fatal("degraded campaign produced an empty error summary")
	}
}

// A campaign cancelled mid-run and resumed from its journal must be
// bit-identical to an uninterrupted campaign: plain, journaling through
// Campaign.Journal, and sectioned, through RunSections' one journal
// under its directory.
func TestCampaignCancelThenResumeBitIdentical(t *testing.T) {
	p, verify := compileCampaignProg(t)
	for _, tc := range []struct {
		name     string
		sections bool
	}{{"plain", false}, {"sectioned", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, CampaignJournal)
			// run executes the campaign, journaling into dir when
			// journal is set.
			run := func(ctx context.Context, journal bool, progress func(done, total, failed, deadlocked int)) (*CampaignResult, error) {
				c := &Campaign{Prog: p, Verify: verify, Seed: 21, Workers: 2, Progress: progress}
				if tc.sections {
					c.Sections, c.Coverage = true, 2
					prep, err := c.Prepare(ctx)
					if err != nil {
						return nil, err
					}
					jdir := ""
					if journal {
						jdir = dir
					}
					res, err := prep.RunSections(ctx, jdir)
					if res == nil {
						return nil, err
					}
					return res.CampaignResult, err
				}
				if journal {
					j, err := OpenJournal(path)
					if err != nil {
						return nil, err
					}
					defer j.Close()
					c.Journal = j
				}
				return c.RunContext(ctx, 50)
			}

			ref, err := run(context.Background(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := len(ref.Trials)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			partial, err := run(ctx, true, func(done, total, failed, deadlocked int) {
				if done >= 10 {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
			}
			if partial == nil || partial.Pending == 0 {
				t.Fatalf("cancellation left no pending trials (partial=%+v)", partial)
			}
			if partial.Completed+partial.Failed+partial.Pending != n {
				t.Fatalf("status partition does not cover all trials: %+v", partial)
			}

			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			restored := j.Restored()
			j.Close()
			if restored == 0 {
				t.Fatal("journal restored no trials")
			}
			resumed, err := run(context.Background(), true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Completed != n {
				t.Fatalf("resumed campaign completed %d/%d", resumed.Completed, n)
			}
			for i := range ref.Trials {
				if resumed.Trials[i] != ref.Trials[i] {
					t.Fatalf("trial %d differs after resume: %+v vs %+v", i, resumed.Trials[i], ref.Trials[i])
				}
			}
			if resumed.Counts != ref.Counts {
				t.Fatalf("outcome counts differ after resume: %v vs %v", resumed.Counts, ref.Counts)
			}
		})
	}
}

// A journal written by one campaign must refuse to drive a different
// one: a different seed draws a different plan sequence, and a
// value-only edit to the program — the same dynamic instruction counts,
// so the same golden fingerprint — changes what its trials observe.
// A header written before journals pinned the program is refused too.
func TestJournalRejectsDifferentCampaign(t *testing.T) {
	p, verify := compileCampaignProg(t)
	m, err := lang.Compile(strings.Replace(campaignProg, "/ 7.0", "/ 9.0", 1))
	if err != nil {
		t.Fatal(err)
	}
	edited, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// The edit keeps every dynamic count, so only the program
	// fingerprint tells the two campaigns' headers apart.
	var metas [2]JournalMeta
	for i, prog := range []*interp.Program{p, edited} {
		prep, err := (&Campaign{Prog: prog, Verify: verify, Seed: 5}).Prepare(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = prep.Meta(10)
	}
	if metas[0].ProgramFP == metas[1].ProgramFP {
		t.Fatal("the edit left the program fingerprint unchanged")
	}
	metas[1].ProgramFP = metas[0].ProgramFP
	if metas[0] != metas[1] {
		t.Fatalf("the edit changed more than the program: %+v vs %+v", metas[0], metas[1])
	}

	for _, tc := range []struct {
		name   string
		second *Campaign
		// stripFP rewrites the journal's header without its program
		// fingerprint, as an older build wrote it.
		stripFP bool
	}{
		{name: "different seed", second: &Campaign{Prog: p, Verify: verify, Seed: 6}},
		{name: "different hang factor", second: &Campaign{Prog: p, Verify: verify, Seed: 5, HangFactor: 20}},
		{name: "value-only program edit", second: &Campaign{Prog: edited, Verify: verify, Seed: 5}},
		{name: "header without program fingerprint", second: &Campaign{Prog: p, Verify: verify, Seed: 5}, stripFP: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trials.jsonl")
			j1, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			c1 := &Campaign{Prog: p, Verify: verify, Seed: 5, Journal: j1}
			if _, err := c1.Run(10); err != nil {
				t.Fatal(err)
			}
			j1.Close()
			if tc.stripFP {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data = []byte(strings.Replace(string(data), `,"program_fp":"`+p.Fingerprint()+`"`, "", 1))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			tc.second.Journal = j2
			if _, err := tc.second.Run(10); !errors.Is(err, ErrCampaignMismatch) {
				t.Fatalf("journal accepted a different campaign: %v", err)
			}
		})
	}
}

// A torn trailing line (crash mid-write) must be discarded on open, and
// the journal must still resume from the records before it.
func TestJournalDiscardsTornTail(t *testing.T) {
	p, verify := compileCampaignProg(t)
	path := filepath.Join(t.TempDir(), "trials.jsonl")

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Campaign{Prog: p, Verify: verify, Seed: 8, Journal: j1}
	if _, err := c1.Run(10); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":99,"tri`); err != nil { // no newline: torn write
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal with torn tail failed to open: %v", err)
	}
	defer j2.Close()
	if j2.Restored() != 10 {
		t.Fatalf("restored %d trials, want 10", j2.Restored())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(intact) {
		t.Fatal("torn tail was not truncated back to the last complete record")
	}
}

// OpenJournal must refuse a structurally corrupt journal — a header of
// an unknown format, a trial line before any header, a duplicate
// header, a trial record its header could not have produced (not
// settled, an outcome outside the classes, an index outside the
// header's trial count) — with ErrJournalCorrupt, and leave the file
// exactly as it found it: even its torn tail, which a valid journal would have
// truncated, stays. RunSections over the same file follows the same
// rule: a corrupt sectioned journal is refused, never rebuilt.
func TestOpenJournalRefusesCorruptUntouched(t *testing.T) {
	const (
		trial     = `{"t":0,"trial":{"site":3,"bit":5,"index":17,"outcome":2,"latency":40}}` + "\n"
		torn      = `{"t":1,"tri`
		sectioned = `{"meta":{"format":"ipas-trial-journal-sectioned-v1","seed":11,"trials":4,"golden_dyn":100,"population":50,"program_fp":"deadbeef"}}` + "\n"
	)
	prep, err := sectionedCampaign(t, 1).Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, data string }{
		{"unknown format", `{"meta":{"format":"ipas-trial-journal-v9","seed":1,"trials":4,"golden_dyn":100,"population":50}}` + "\n" + trial + torn},
		{"trial before header", trial + torn},
		{"sectioned duplicate header", sectioned + trial + sectioned + torn},
		{"pending trial", sectioned + trial + `{"t":1,"trial":{"site":-1,"bit":5,"index":17,"outcome":0,"latency":0,"status":2}}` + "\n" + torn},
		{"unknown status", sectioned + `{"t":1,"trial":{"site":3,"bit":5,"index":17,"outcome":2,"latency":40,"status":7}}` + "\n" + trial},
		{"outcome out of range", sectioned + trial + `{"t":1,"trial":{"site":3,"bit":5,"index":17,"outcome":9,"latency":40}}` + "\n"},
		{"outcome one past the last class", sectioned + `{"t":2,"trial":{"site":3,"bit":5,"index":17,"outcome":4,"latency":40}}` + "\n"},
		{"negative outcome", sectioned + `{"t":1,"trial":{"site":3,"bit":5,"index":17,"outcome":-1,"latency":40}}` + "\n" + torn},
		{"trial index past the header", sectioned + trial + `{"t":4,"trial":{"site":3,"bit":5,"index":17,"outcome":2,"latency":40}}` + "\n"},
		{"negative trial index", sectioned + `{"t":-1,"trial":{"site":3,"bit":5,"index":17,"outcome":2,"latency":40}}` + "\n" + trial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, CampaignJournal)
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path)
			if err == nil {
				j.Close()
				t.Fatal("corrupt journal opened")
			}
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("OpenJournal = %v, want ErrJournalCorrupt", err)
			}
			if _, err := prep.RunSections(context.Background(), dir); !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("RunSections = %v, want ErrJournalCorrupt", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != tc.data {
				t.Fatalf("refused journal was modified:\n got %q\nwant %q", after, tc.data)
			}
		})
	}
}

// Runs that end before their fault injects are injector-infrastructure
// conditions, never modeled outcomes (they must not surface as
// OutcomeSymptom in the statistics).
func TestTrialFromResultPreInjectionIsInfraError(t *testing.T) {
	golden := &interp.Result{}
	plan := interp.FaultPlan{Index: 5, Bit: 3}
	okVerify := func(_, _ *interp.Result) bool { return true }

	if _, err := trialFromResult(plan, golden, &interp.Result{Trap: interp.TrapOOB}, okVerify); err == nil {
		t.Fatal("pre-injection trap was classified instead of erroring")
	}
	if _, err := trialFromResult(plan, golden, &interp.Result{Trap: interp.TrapNone}, okVerify); err == nil {
		t.Fatal("clean run that never injected was classified instead of erroring")
	}
	if _, err := trialFromResult(plan, golden, &interp.Result{Trap: interp.TrapCancelled}, okVerify); !errors.Is(err, errCancelled) {
		t.Fatalf("cancelled run returned %v, want errCancelled", err)
	}
	// A watchdog expiry is the harness's even after the flip: an error
	// RunTrial retries, never a pending trial and never an outcome.
	watchdog := &interp.Result{Injected: true, InjectedSite: 4, Trap: interp.TrapWatchdog, TrapMsg: "infrastructure watchdog expired after 60s: recv from 1 tag 4 blocked"}
	if _, err := trialFromResult(plan, golden, watchdog, okVerify); err == nil || errors.Is(err, errCancelled) || !strings.Contains(err.Error(), watchdog.TrapMsg) {
		t.Fatalf("watchdog expiry returned %v, want a retried infrastructure error carrying its message", err)
	}
	tr, err := trialFromResult(plan, golden, &interp.Result{Injected: true, InjectedSite: 4, Trap: interp.TrapOOB}, okVerify)
	if err != nil {
		t.Fatalf("post-injection trap errored: %v", err)
	}
	if tr.Status != TrialCompleted || tr.Outcome != OutcomeSymptom {
		t.Fatalf("post-injection trap classified as %+v, want completed symptom", tr)
	}
}

// Cancellation raised while trials are executing must leave unexecuted
// trials pending (to be re-run on resume), never charge them as failed.
func TestCampaignCancelDuringTrialLeavesPending(t *testing.T) {
	p, verify := compileCampaignProg(t)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Bool
	c := &Campaign{
		Prog: p, Verify: verify, Seed: 3, Workers: 1,
		beforeTrial: func(trial, attempt int) {
			if started.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}
	res, err := c.RunContext(ctx, 20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no result")
	}
	for i, tr := range res.Trials {
		if tr.Status == TrialFailed {
			t.Fatalf("cancellation charged trial %d as failed: %+v", i, tr)
		}
	}
}

// The invariance extends to GOMAXPROCS workers (the satellite asks for
// 1, 4 and GOMAXPROCS explicitly; 1 vs 4 is covered by
// TestCampaignWorkerCountInvariant).
func TestCampaignWorkerCountInvariantGOMAXPROCS(t *testing.T) {
	p, verify := compileCampaignProg(t)
	run := func(workers int) *CampaignResult {
		c := &Campaign{Prog: p, Verify: verify, Seed: 55, Workers: workers}
		res, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	rg := run(runtime.GOMAXPROCS(0))
	for i := range r1.Trials {
		if r1.Trials[i] != rg.Trials[i] {
			t.Fatalf("trial %d differs between 1 and GOMAXPROCS=%d workers", i, runtime.GOMAXPROCS(0))
		}
	}
}

// Retry delays, a trial's and a coordinator shard's, must stay positive
// and bounded for any attempt count: an unclamped shift would wait for
// days long before it overflowed into a zero or negative delay, which
// would turn quarantine into a hot requeue loop.
func TestBackoffDelayClamped(t *testing.T) {
	for _, base := range []time.Duration{retryBackoff, time.Second} {
		prev := time.Duration(0)
		for attempt := 1; attempt <= 200; attempt++ {
			d := BackoffDelay(base, attempt)
			if d <= 0 || d > MaxBackoff {
				t.Fatalf("BackoffDelay(%v, %d) = %v, want within (0, %v]", base, attempt, d, MaxBackoff)
			}
			if d < prev {
				t.Fatalf("BackoffDelay(%v, %d) = %v shrank below %v", base, attempt, d, prev)
			}
			prev = d
		}
	}
	for _, tc := range []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{retryBackoff, 1, 10 * time.Millisecond},
		{retryBackoff, 3, 40 * time.Millisecond},
		{time.Second, 3, 4 * time.Second},
		{retryBackoff, 20, MaxBackoff}, // unclamped: about 87 minutes
		{time.Second, 100, MaxBackoff},
		{2 * time.Hour, 1, MaxBackoff},
	} {
		if got := BackoffDelay(tc.base, tc.attempt); got != tc.want {
			t.Errorf("BackoffDelay(%v, %d) = %v, want %v", tc.base, tc.attempt, got, tc.want)
		}
	}
}
