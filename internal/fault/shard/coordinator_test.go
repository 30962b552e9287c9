package shard_test

// The shard partition is consumed by the campaign coordinator
// (internal/campaign), so its invariants are checked end to end: these
// tests run an in-process coordinator and a fleet of workers over
// httptest and require that partitioning a campaign — any shard count,
// any number of workers, interrupted, mutilated and resumed — changes
// nothing about its result or its merged journal, which must equal a
// local Workers=1 run byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/fault"
	"ipas/internal/fault/shard"
)

// shardSource mirrors the fault package's shared test program: 32
// pseudo-random floats reduced to a single sqrt-of-sum-of-squares
// output, verified by exact match so any corruption is SOC.
const shardSource = `
func main() {
	var n int = 32;
	var a *float = malloc_f64(n);
	var seed int = 77;
	for (var i int = 0; i < n; i = i + 1) {
		seed = (seed * 1103515245 + 12345) % 2147483648;
		a[i] = float(seed % 100) / 7.0;
	}
	var s float = 0.0;
	for (var i int = 0; i < n; i = i + 1) {
		s = s + a[i] * a[i];
	}
	out_f64(0, sqrt(s));
}
`

// testSpec is a name-pinned coordinator campaign over shardSource, so
// resubmissions with a different seed, model or shard count land in
// the same journal directory.
func testSpec(seed int64, n, shards int) campaign.Spec {
	s := campaign.Spec{Name: "shard-test", Source: shardSource, Verifier: "exact", Trials: n, Seed: seed, Shards: shards}
	s.Normalize()
	return s
}

// referenceRun produces the ground truth every sharded configuration
// must reproduce bit for bit: the spec's campaign run locally with one
// worker, journaling to a file, whose journal bytes are the canonical
// form.
func referenceRun(t *testing.T, spec campaign.Spec) (*fault.CampaignResult, []byte) {
	t.Helper()
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	j, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Journal = j
	c.Workers = 1
	res, err := c.RunContext(context.Background(), spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

// startFleet runs a coordinator rooted at root and `workers` in-process
// workers until ctx is cancelled or the returned stop is called. stop
// waits for the workers to exit and then shuts the coordinator down,
// releasing its journal locks — a crash of the whole deployment as far
// as the journal directory can tell. It is idempotent and also runs at
// test cleanup.
func startFleet(t *testing.T, ctx context.Context, root string, workers int,
	beforeTrial func(campaign string, shard, t int) error) (*campaign.Client, func()) {
	t.Helper()
	srv, err := campaign.New(campaign.Options{Dir: root, LeaseTTL: 5 * time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &campaign.Worker{
			Server:      hs.URL,
			Name:        fmt.Sprintf("worker-%d", i),
			Poll:        10 * time.Millisecond,
			BeforeTrial: beforeTrial,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	stop := sync.OnceFunc(func() {
		cancel()
		wg.Wait()
		hs.Close()
		srv.Close()
	})
	t.Cleanup(stop)
	return &campaign.Client{Base: hs.URL}, stop
}

// submit admits spec and fails the test unless the coordinator answers
// with HTTP status want.
func submit(t *testing.T, client *campaign.Client, spec campaign.Spec, want int) campaign.SubmitResponse {
	t.Helper()
	sub, status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != want {
		t.Fatalf("submit returned HTTP %d, want %d", status, want)
	}
	return sub
}

// waitResult polls the coordinator until the campaign completes.
func waitResult(t *testing.T, client *campaign.Client, id string) *fault.CampaignResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.WaitResult(ctx, id, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("campaign %s did not complete: %v", id, err)
	}
	return res
}

// interrupt runs spec on a fresh fleet until `after` trials have
// started, then stops the fleet, and asserts the campaign was left
// incomplete with no merged journal.
func interrupt(t *testing.T, root string, spec campaign.Spec, workers int, after int64, wantStatus int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	client, stop := startFleet(t, ctx, root, workers, func(string, int, int) error {
		if started.Add(1) >= after {
			cancel()
		}
		return nil
	})
	sub := submit(t, client, spec, wantStatus)
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("campaign never reached %d started trials", after)
	}
	stop()
	if _, err := os.Stat(shard.MergedJournalPath(filepath.Join(root, sub.ID))); !os.IsNotExist(err) {
		t.Fatal("interrupted campaign wrote a merged journal")
	}
}

func assertSameResult(t *testing.T, got, want *fault.CampaignResult) {
	t.Helper()
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(got.Trials), len(want.Trials))
	}
	for i := range got.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, got.Trials[i], want.Trials[i])
		}
	}
	if got.Completed != want.Completed || got.Failed != want.Failed ||
		got.Pending != want.Pending || got.Deadlocks != want.Deadlocks ||
		got.Counts != want.Counts || got.GoldenDyn != want.GoldenDyn {
		t.Fatalf("statistics differ: %+v vs %+v", got, want)
	}
}

func assertMergedJournal(t *testing.T, dir string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(shard.MergedJournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged journal differs from the single-loop journal (%d vs %d bytes)", len(got), len(want))
	}
}

// Every shard count × worker count must produce a CampaignResult and a
// merged journal bit-identical to the single-loop engine's.
func TestShardCountInvariance(t *testing.T) {
	const seed, n = 29, 60
	refRes, refJournal := referenceRun(t, testSpec(seed, n, 1))

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				root := t.TempDir()
				client, _ := startFleet(t, context.Background(), root, w, nil)
				sub := submit(t, client, testSpec(seed, n, k), http.StatusCreated)
				assertSameResult(t, waitResult(t, client, sub.ID), refRes)
				assertMergedJournal(t, filepath.Join(root, sub.ID), refJournal)
			})
		}
	}
}

// Interrupting a campaign mid-flight and resuming it from the
// per-shard journals must reproduce the uninterrupted result — for
// every shard and worker count, including resuming with a different
// worker count.
func TestShardCancelThenResumeInvariance(t *testing.T) {
	const seed, n = 37, 48
	refRes, refJournal := referenceRun(t, testSpec(seed, n, 1))

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				root := t.TempDir()
				spec := testSpec(seed, n, k)
				interrupt(t, root, spec, w, n/3, http.StatusCreated)

				// Resume with a different worker count: scheduling
				// must not leak into results.
				client, _ := startFleet(t, context.Background(), root, w%3+1, nil)
				sub := submit(t, client, spec, http.StatusOK)
				if sub.Restored == 0 {
					t.Fatal("resume restored no trials from the interrupted run's journals")
				}
				assertSameResult(t, waitResult(t, client, sub.ID), refRes)
				assertMergedJournal(t, filepath.Join(root, sub.ID), refJournal)
			})
		}
	}
}

// TestModelShardCountInvariance extends the shard-count invariance to
// every built-in error model: each shard count must reproduce the
// single-loop engine's result and merged journal bit for bit, which is
// only possible if the per-trial model draws survive partitioning.
func TestModelShardCountInvariance(t *testing.T) {
	const seed, n = 29, 36
	for _, model := range fault.BuiltinModels() {
		t.Run(model.Name(), func(t *testing.T) {
			spec := testSpec(seed, n, 1)
			spec.Model = model.Name()
			refRes, refJournal := referenceRun(t, spec)

			for _, k := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					root := t.TempDir()
					client, _ := startFleet(t, context.Background(), root, 2, nil)
					spec := spec
					spec.Shards = k
					sub := submit(t, client, spec, http.StatusCreated)
					assertSameResult(t, waitResult(t, client, sub.ID), refRes)
					assertMergedJournal(t, filepath.Join(root, sub.ID), refJournal)
				})
			}
		})
	}
}

// A campaign pointed at a directory whose shard journals belong to a
// different campaign must refuse rather than clobber them; one resumed
// with a different shard partition must refuse with a message naming
// the cure.
func TestShardJournalOwnership(t *testing.T) {
	const n = 12
	root := t.TempDir()
	client, stop := startFleet(t, context.Background(), root, 2, nil)
	sub := submit(t, client, testSpec(5, n, 3), http.StatusCreated)
	waitResult(t, client, sub.ID)
	stop()

	// Each refusal is checked on a freshly started coordinator, so it
	// comes from the journals on disk, not from in-memory state.
	refuse := func(spec campaign.Spec, want string) {
		t.Helper()
		client, stop := startFleet(t, context.Background(), root, 0, nil)
		defer stop()
		_, status, err := client.Submit(context.Background(), spec)
		if err == nil {
			t.Fatalf("submit of %+v reused another campaign's journal directory", spec)
		}
		if status != http.StatusConflict || !errors.Is(err, fault.ErrCampaignMismatch) {
			t.Fatalf("submit returned HTTP %d, %v; want 409 and ErrCampaignMismatch", status, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal does not say %q: %v", want, err)
		}
	}
	refuse(testSpec(6, n, 3), "different campaign")
	refuse(testSpec(5, n, 4), "different shard partition")

	// The original configuration still resumes (instantly: everything
	// is journaled).
	client, _ = startFleet(t, context.Background(), root, 0, nil)
	if sub := submit(t, client, testSpec(5, n, 3), http.StatusOK); sub.Status != "complete" {
		t.Fatalf("resumed campaign status %q, want complete", sub.Status)
	}
}

// TestShardJournalUnknownModelFailsShard: a shard journal whose header
// names a model this build does not know must refuse admission
// (ErrCampaignMismatch path), not silently re-run the shard's trials
// under the default model.
func TestShardJournalUnknownModelFailsShard(t *testing.T) {
	const seed, n = 29, 20
	root := t.TempDir()
	spec := testSpec(seed, n, 2)
	client, stop := startFleet(t, context.Background(), root, 2, nil)
	sub := submit(t, client, spec, http.StatusCreated)
	waitResult(t, client, sub.ID)
	stop()
	dir := filepath.Join(root, sub.ID)

	// Stamp an unknown model into shard 0's header, keeping the rest of
	// the journal intact so only the model mismatches.
	path := filepath.Join(dir, shard.JournalName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	var rec struct {
		Meta *fault.JournalMeta `json:"meta"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Meta == nil {
		t.Fatalf("shard journal %s: malformed header (err=%v)", path, err)
	}
	rec.Meta.Model = "future-model-v9"
	hdr, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(string(hdr)+"\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the merged journal so the resume actually re-opens the
	// per-shard journals.
	if err := os.Remove(shard.MergedJournalPath(dir)); err != nil {
		t.Fatal(err)
	}

	client, _ = startFleet(t, context.Background(), root, 2, nil)
	_, status, err := client.Submit(context.Background(), spec)
	if err == nil {
		t.Fatal("sharded resume accepted a journal naming an unknown model")
	}
	if status != http.StatusConflict || !errors.Is(err, fault.ErrCampaignMismatch) || !strings.Contains(err.Error(), "future-model-v9") {
		t.Fatalf("sharded resume returned HTTP %d, %v; want 409 and the unknown-model mismatch", status, err)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(hdr) + "\n" + lines[1]; string(rewritten) != want {
		t.Fatal("refused shard journal was modified")
	}
}

// TestChaosCrashResumeBitIdentical is the chaos gauntlet: a campaign
// is killed mid-flight twice, its journals are mutilated between
// resumes — a torn tail (process killed mid-write), a wholesale
// corrupt shard journal, a deleted shard journal — and a shard's
// first lease of the final leg fails. The survivor must be
// bit-identical, result and merged journal both, to an uninterrupted
// single-loop campaign.
func TestChaosCrashResumeBitIdentical(t *testing.T) {
	const seed, n, shards = 31, 60, 6
	spec := testSpec(seed, n, shards)
	refRes, refJournal := referenceRun(t, spec)
	root := t.TempDir()
	id := spec.ID()
	journal := func(sh int) string { return filepath.Join(root, id, shard.JournalName(sh)) }

	// Leg 1: kill after ~10 trials.
	interrupt(t, root, spec, 3, 10, http.StatusCreated)

	// Chaos: a torn tail on shard 0 (the journal's own crash-recovery
	// drops it) and a half-overwritten, structurally corrupt journal on
	// shard 1 (the coordinator deletes it and re-runs the shard).
	f, err := os.OpenFile(journal(0), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":999,"trial":{"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(journal(1), []byte("{\"meta\":{\"format\":\"bogus-v9\"}}\n{\"t\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Leg 2: kill again after ~15 more trials. Admission reports the
	// corrupt shard journal as recovered (HTTP 202).
	interrupt(t, root, spec, 3, 15, http.StatusAccepted)

	// Chaos: lose shard 2's journal entirely.
	if err := os.Remove(journal(2)); err != nil {
		t.Fatal(err)
	}

	// Leg 3: run to completion, with shard 3's first lease of this leg
	// failing — the coordinator must back off, retry, and heal.
	var failed atomic.Bool
	client, _ := startFleet(t, context.Background(), root, 3, func(_ string, sh, _ int) error {
		if sh == 3 && failed.CompareAndSwap(false, true) {
			return errors.New("chaos: injected shard failure")
		}
		return nil
	})
	sub := submit(t, client, spec, http.StatusOK)
	assertSameResult(t, waitResult(t, client, sub.ID), refRes)
	assertMergedJournal(t, filepath.Join(root, sub.ID), refJournal)
}
