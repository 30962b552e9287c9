package campaign

// The shard partition's invariants are checked end to end: these
// tests run an in-process coordinator and a fleet of workers over
// httptest and require that partitioning a campaign — any shard count,
// any number of workers, interrupted, mutilated and resumed — changes
// nothing about its result or its journal, which must carry a local
// Workers=1 run's header and trials (assertJournal, in server_test.go)
// and resume under a local campaign, as a local journal resumes here.
// Specs are name-pinned ("shard-test"), so resubmissions with a
// different seed, model or shard count land in the same journal
// directory.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
// incomplete in its one journal.
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
	entries, err := os.ReadDir(filepath.Join(root, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != fault.CampaignJournal {
		t.Fatalf("interrupted campaign left %v, want just %s", entries, fault.CampaignJournal)
	}
	if restored := journaled(t, root, sub.ID); restored >= spec.Trials {
		t.Fatalf("interrupted campaign journaled all %d trials", restored)
	}
}

// journaled counts the trials campaign id's journal under root holds.
func journaled(t *testing.T, root, id string) int {
	t.Helper()
	j, err := fault.OpenJournal(filepath.Join(root, id, fault.CampaignJournal))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Restored()
}

// Every shard count × worker count must produce a result bit-identical
// to the single-loop engine's, and a campaign directory holding only
// the journal that engine writes: its header and trials.
func TestShardCountInvariance(t *testing.T) {
	const seed, n = 29, 60
	refRes, meta := localReference(t, testSpec("shard-test", n, 1, seed))

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				root := t.TempDir()
				client, _ := startFleet(t, context.Background(), root, w, nil)
				sub := submit(t, client, testSpec("shard-test", n, k, seed), http.StatusCreated)
				assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
				assertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
			})
		}
	}
}

// Interrupting a campaign mid-flight and resuming it from its journal
// must reproduce the uninterrupted result — for
// every shard and worker count, including resuming with a different
// worker count.
func TestShardCancelThenResumeInvariance(t *testing.T) {
	const seed, n = 37, 48
	refRes, meta := localReference(t, testSpec("shard-test", n, 1, seed))

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
					t.Fatal("resume restored no trials from the interrupted run's journal")
				}
				assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
				assertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
			})
		}
	}
}

// TestModelShardCountInvariance extends the shard-count invariance to
// every built-in error model: each shard count must reproduce the
// single-loop engine's result and journal bit for bit, which is only
// possible if the per-trial model draws survive partitioning.
func TestModelShardCountInvariance(t *testing.T) {
	const seed, n = 29, 36
	for _, model := range fault.BuiltinModels() {
		t.Run(model.Name(), func(t *testing.T) {
			spec := testSpec("shard-test", n, 1, seed)
			spec.Model = model.Name()
			refRes, meta := localReference(t, spec)

			for _, k := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					root := t.TempDir()
					client, _ := startFleet(t, context.Background(), root, 2, nil)
					spec := spec
					spec.Shards = k
					sub := submit(t, client, spec, http.StatusCreated)
					assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
					assertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
				})
			}
		})
	}
}

// A campaign pointed at a directory whose journal belongs to a
// different campaign must refuse rather than clobber it; the same
// campaign resubmitted at another shard count resumes, because the
// partition only decides dispatch.
func TestShardJournalOwnership(t *testing.T) {
	const n = 12
	root := t.TempDir()
	client, stop := startFleet(t, context.Background(), root, 2, nil)
	sub := submit(t, client, testSpec("shard-test", n, 3, 5), http.StatusCreated)
	waitComplete(t, client, sub.ID)
	stop()

	// Each admission runs on a freshly started coordinator, so its
	// verdict comes from the journal on disk, not from in-memory state.
	client, stop = startFleet(t, context.Background(), root, 0, nil)
	_, status, err := client.Submit(context.Background(), testSpec("shard-test", n, 3, 6))
	if status != http.StatusConflict || !errors.Is(err, fault.ErrCampaignMismatch) || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("submit of another seed returned HTTP %d, %v; want 409 and ErrCampaignMismatch", status, err)
	}
	stop()
	for _, shards := range []int{4, 3} {
		client, stop := startFleet(t, context.Background(), root, 0, nil)
		// Everything is journaled, so the campaign resumes complete.
		if sub := submit(t, client, testSpec("shard-test", n, shards, 5), http.StatusOK); sub.Status != "complete" {
			t.Fatalf("campaign resumed at %d shards has status %q, want complete", shards, sub.Status)
		}
		stop()
	}
}

// TestShardJournalUnknownModelFailsShard: a campaign journal whose
// header names a model this build does not know must refuse admission
// (ErrCampaignMismatch path) and stay untouched, not silently re-run
// its trials under the default model.
func TestShardJournalUnknownModelFailsShard(t *testing.T) {
	const seed, n = 29, 20
	root := t.TempDir()
	spec := testSpec("shard-test", n, 2, seed)
	client, stop := startFleet(t, context.Background(), root, 2, nil)
	sub := submit(t, client, spec, http.StatusCreated)
	waitComplete(t, client, sub.ID)
	stop()

	// Stamp an unknown model into the header, keeping the rest of the
	// journal intact so only the model mismatches.
	path := filepath.Join(root, sub.ID, fault.CampaignJournal)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	var rec struct {
		Meta *fault.JournalMeta `json:"meta"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Meta == nil {
		t.Fatalf("journal %s: malformed header (err=%v)", path, err)
	}
	rec.Meta.Model = "future-model-v9"
	hdr, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	stamped := string(hdr) + "\n" + lines[1]
	if err := os.WriteFile(path, []byte(stamped), 0o644); err != nil {
		t.Fatal(err)
	}

	client, _ = startFleet(t, context.Background(), root, 2, nil)
	_, status, err := client.Submit(context.Background(), spec)
	if err == nil {
		t.Fatal("coordinator resume accepted a journal naming an unknown model")
	}
	if status != http.StatusConflict || !errors.Is(err, fault.ErrCampaignMismatch) || !strings.Contains(err.Error(), "future-model-v9") {
		t.Fatalf("coordinator resume returned HTTP %d, %v; want 409 and the unknown-model mismatch", status, err)
	}
	if rewritten, err := os.ReadFile(path); err != nil || string(rewritten) != stamped {
		t.Fatalf("refused journal was modified (err=%v)", err)
	}
}

// TestChaosCrashResumeBitIdentical is the chaos gauntlet: a campaign
// is killed mid-flight again and again, its journal is mutilated
// between resumes — a torn tail (process killed mid-write), wholesale
// structural corruption, an older build's shard journal beside it,
// outright deletion — and a shard's first lease of the final leg
// fails. The survivor must be bit-identical, result and journal both,
// to an uninterrupted single-loop campaign.
func TestChaosCrashResumeBitIdentical(t *testing.T) {
	const seed, n, shards = 31, 60, 6
	spec := testSpec("shard-test", n, shards, seed)
	refRes, meta := localReference(t, spec)
	root := t.TempDir()
	id := spec.ID()
	dir := filepath.Join(root, id)
	journal := filepath.Join(dir, fault.CampaignJournal)

	// Leg 1: kill after ~10 trials.
	interrupt(t, root, spec, 3, 10, http.StatusCreated)

	// Chaos: a torn tail, which the journal's own crash recovery drops.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":999,"trial":{"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Leg 2: resume (HTTP 200) and kill again after ~15 more trials.
	interrupt(t, root, spec, 3, 15, http.StatusOK)

	// Chaos: a half-overwritten, structurally corrupt journal. The
	// coordinator deletes it and re-runs the campaign from trial 0
	// (HTTP 202).
	if err := os.WriteFile(journal, []byte("{\"meta\":{\"format\":\"bogus-v9\"}}\n{\"t\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	interrupt(t, root, spec, 3, 10, http.StatusAccepted)

	// Chaos: an older build's shard journal beside the journal. The
	// directory is refused (409) and left as it was.
	older := filepath.Join(dir, "shard-0000.jsonl")
	if err := os.WriteFile(older, []byte("{\"meta\":{\"format\":\"ipas-trial-journal-v1\"}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, root)
	client, stop := startFleet(t, context.Background(), root, 0, nil)
	if _, status, err := client.Submit(context.Background(), spec); status != http.StatusConflict || !errors.Is(err, fault.ErrCampaignMismatch) {
		t.Fatalf("older layout returned HTTP %d, %v; want 409 and ErrCampaignMismatch", status, err)
	}
	stop()
	if after := readTree(t, root); !reflect.DeepEqual(after, before) {
		t.Fatal("refused older-layout directory changed")
	}
	if err := os.Remove(older); err != nil {
		t.Fatal(err)
	}

	// Chaos: lose the journal entirely; the campaign starts afresh
	// (HTTP 201) and is killed once more.
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	interrupt(t, root, spec, 3, 10, http.StatusCreated)

	// Final leg: run to completion, with shard 3's first lease of this
	// leg failing — the coordinator must back off, retry, and heal.
	var failed atomic.Bool
	client, _ = startFleet(t, context.Background(), root, 3, func(_ string, sh, _ int) error {
		if sh == 3 && failed.CompareAndSwap(false, true) {
			return errors.New("chaos: injected shard failure")
		}
		return nil
	})
	sub := submit(t, client, spec, http.StatusOK)
	assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
	assertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
}

// A completed coordinator campaign's journal is a local campaign's
// journal: a fault.Campaign built from the same spec, plain or
// sectioned, opened on it restores every trial, runs none, and returns
// the coordinator's result.
func TestLocalCampaignResumesCoordinatorJournal(t *testing.T) {
	for _, sections := range []bool{false, true} {
		t.Run(fmt.Sprintf("sections=%t", sections), func(t *testing.T) {
			spec := testSpec("local-resume", 24, 3, 17)
			if sections {
				spec = Spec{Name: "local-resume", Source: testSource, Verifier: "exact", Seed: 17, Shards: 3, Sections: true, MaxPerSection: 8}
				spec.Normalize()
			}
			root := t.TempDir()
			client, stop := startFleet(t, context.Background(), root, 2, nil)
			sub := submit(t, client, spec, http.StatusCreated)
			remote := waitComplete(t, client, sub.ID)
			stop()

			c, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			j, err := fault.OpenJournal(filepath.Join(root, sub.ID, fault.CampaignJournal))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if j.Restored() != len(remote.Trials) {
				t.Fatalf("local journal open restored %d of %d trials", j.Restored(), len(remote.Trials))
			}
			ran := 0
			c.Journal, c.Progress = j, func(int, int, int, int) { ran++ }
			res, err := c.RunContext(context.Background(), spec.Trials)
			if err != nil {
				t.Fatal(err)
			}
			if ran != 0 {
				t.Fatalf("local resume of a complete journal ran %d trials", ran)
			}
			assertSameTrials(t, res, remote)
		})
	}
}

// A local Workers=1 journal interrupted after k trials and copied into
// a coordinator's campaign directory resumes there: a 3-shard fleet
// runs exactly the n−k missing trials and matches the local reference.
func TestCoordinatorResumesLocalJournal(t *testing.T) {
	const seed, n = 23, 30
	spec := testSpec("", n, 3, seed)
	refRes, meta := localReference(t, spec)

	// Interrupt a local run after ~n/3 trials.
	local := filepath.Join(t.TempDir(), "local.jsonl")
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	j, err := fault.OpenJournal(local)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Journal, c.Workers = j, 1
	c.Progress = func(done, _, _, _ int) {
		if done >= n/3 {
			cancel()
		}
	}
	partial, err := c.RunContext(ctx, n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted local run returned %v, want context.Canceled", err)
	}
	k := partial.Completed + partial.Failed
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if k == 0 || k >= n {
		t.Fatalf("local run journaled %d of %d trials before the interrupt", k, n)
	}

	root := t.TempDir()
	data, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, spec.ID()), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, spec.ID(), fault.CampaignJournal), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	client, _ := startFleet(t, context.Background(), root, 2, func(string, int, int) error {
		ran.Add(1)
		return nil
	})
	sub := submit(t, client, spec, http.StatusOK)
	if sub.Restored != k {
		t.Fatalf("coordinator restored %d trials, want the local journal's %d", sub.Restored, k)
	}
	assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
	if got := ran.Load(); got != int64(n-k) {
		t.Fatalf("coordinator ran %d trials, want the %d the local journal lacked", got, n-k)
	}
	assertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
}

// A name-pinned campaign interrupted at 3 shards resumes at 4: the
// journal's header does not name the partition, so the new partition
// runs only the trials the journal lacks.
func TestRepartitionedCampaignResumes(t *testing.T) {
	const seed, n = 41, 36
	refRes, meta := localReference(t, testSpec("shard-test", n, 1, seed))
	root := t.TempDir()
	interrupt(t, root, testSpec("shard-test", n, 3, seed), 2, n/3, http.StatusCreated)

	var ran atomic.Int64
	client, _ := startFleet(t, context.Background(), root, 2, func(string, int, int) error {
		ran.Add(1)
		return nil
	})
	sub := submit(t, client, testSpec("shard-test", n, 4, seed), http.StatusOK)
	assertSameTrials(t, waitComplete(t, client, sub.ID), refRes)
	if got := ran.Load(); sub.Restored == 0 || got != int64(n-sub.Restored) {
		t.Fatalf("4-shard resume restored %d trials and ran %d, want the %d missing", sub.Restored, got, n-sub.Restored)
	}
	assertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
}
