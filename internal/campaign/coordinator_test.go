package campaign

// The shard partition's invariants are checked end to end: these
// tests run an in-process coordinator and a fleet of workers over
// httptest and require that partitioning a campaign — any shard count,
// any number of workers, interrupted, mutilated and resumed — changes
// nothing about its result or its merged journal, which must equal a
// local Workers=1 run byte for byte. Specs are name-pinned
// ("shard-test"), so resubmissions with a different seed, model or
// shard count land in the same journal directory. The plain shard ×
// worker count table, TestShardCountInvariance, is a black-box test in
// internal/fault/shard.

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

	"ipas/internal/fault"
)

// startFleet runs a coordinator rooted at root and `workers` in-process
// workers until ctx is cancelled or the returned stop is called. stop
// waits for the workers to exit and then shuts the coordinator down,
// releasing its journal locks — a crash of the whole deployment as far
// as the journal directory can tell. It is idempotent and also runs at
// test cleanup.
func startFleet(t *testing.T, ctx context.Context, root string, workers int,
	beforeTrial func(campaign string, shard, t int) error) (*Client, func()) {
	t.Helper()
	srv, err := New(Options{Dir: root, LeaseTTL: 5 * time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &Worker{
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
	return &Client{Base: hs.URL}, stop
}

// submit admits spec and fails the test unless the coordinator answers
// with HTTP status want.
func submit(t *testing.T, client *Client, spec Spec, want int) SubmitResponse {
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

// interrupt runs spec on a fresh fleet until `after` trials have
// started, then stops the fleet, and asserts the campaign was left
// incomplete with no merged journal.
func interrupt(t *testing.T, root string, spec Spec, workers int, after int64, wantStatus int) {
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
	if _, err := os.Stat(mergedJournalPath(filepath.Join(root, sub.ID))); !os.IsNotExist(err) {
		t.Fatal("interrupted campaign wrote a merged journal")
	}
}

func assertMergedJournal(t *testing.T, dir string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(mergedJournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged journal differs from the single-loop journal (%d vs %d bytes)", len(got), len(want))
	}
}

// Interrupting a campaign mid-flight and resuming it from the
// per-shard journals must reproduce the uninterrupted result — for
// every shard and worker count, including resuming with a different
// worker count.
func TestShardCancelThenResumeInvariance(t *testing.T) {
	const seed, n = 37, 48
	refRes, refJournal := localReference(t, testSpec("shard-test", n, 1, seed))

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				root := t.TempDir()
				spec := testSpec("shard-test", n, k, seed)
				interrupt(t, root, spec, w, n/3, http.StatusCreated)

				// Resume with a different worker count: scheduling
				// must not leak into results.
				client, _ := startFleet(t, context.Background(), root, w%3+1, nil)
				sub := submit(t, client, spec, http.StatusOK)
				if sub.Restored == 0 {
					t.Fatal("resume restored no trials from the interrupted run's journals")
				}
				assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
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
			spec := testSpec("shard-test", n, 1, seed)
			spec.Model = model.Name()
			refRes, refJournal := localReference(t, spec)

			for _, k := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					root := t.TempDir()
					client, _ := startFleet(t, context.Background(), root, 2, nil)
					spec := spec
					spec.Shards = k
					sub := submit(t, client, spec, http.StatusCreated)
					assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
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
	sub := submit(t, client, testSpec("shard-test", n, 3, 5), http.StatusCreated)
	waitComplete(t, client, sub.ID)
	stop()

	// Each refusal is checked on a freshly started coordinator, so it
	// comes from the journals on disk, not from in-memory state.
	refuse := func(spec Spec, want string) {
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
	refuse(testSpec("shard-test", n, 3, 6), "different campaign")
	refuse(testSpec("shard-test", n, 4, 5), "different shard partition")

	// The original configuration still resumes (instantly: everything
	// is journaled).
	client, _ = startFleet(t, context.Background(), root, 0, nil)
	if sub := submit(t, client, testSpec("shard-test", n, 3, 5), http.StatusOK); sub.Status != "complete" {
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
	spec := testSpec("shard-test", n, 2, seed)
	client, stop := startFleet(t, context.Background(), root, 2, nil)
	sub := submit(t, client, spec, http.StatusCreated)
	waitComplete(t, client, sub.ID)
	stop()
	dir := filepath.Join(root, sub.ID)

	// Stamp an unknown model into shard 0's header, keeping the rest of
	// the journal intact so only the model mismatches.
	path := filepath.Join(dir, shardJournalName(0))
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
	if err := os.Remove(mergedJournalPath(dir)); err != nil {
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
	spec := testSpec("shard-test", n, shards, seed)
	refRes, refJournal := localReference(t, spec)
	root := t.TempDir()
	id := spec.ID()
	journal := func(sh int) string { return filepath.Join(root, id, shardJournalName(sh)) }

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
	assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
	assertMergedJournal(t, filepath.Join(root, sub.ID), refJournal)
}
