// Package shard_test checks the campaign coordinator's shard partition
// from outside: it drives internal/campaign only through its exported
// API and its on-disk journal, so it pins the contract that a client
// and an operator see. The coordinator's own white-box tests of
// the partition, its journals and its state machine live in
// internal/campaign.
package shard_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/campaign/campaigntest"
	"ipas/internal/fault"
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

func testSpec(seed int64, n, shards int) campaign.Spec {
	s := campaign.Spec{Name: "shard-test", Source: shardSource, Verifier: "exact", Trials: n, Seed: seed, Shards: shards}
	s.Normalize()
	return s
}

// referenceRun produces the ground truth every sharded configuration
// must reproduce bit for bit: the spec's campaign run locally with one
// worker, and the journal header that run writes.
func referenceRun(t *testing.T, spec campaign.Spec) (*fault.CampaignResult, fault.JournalMeta) {
	t.Helper()
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = 1
	res, err := c.RunContext(context.Background(), spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := c.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, prep.Meta(spec.Trials)
}

// startFleet runs a coordinator rooted at root and `workers` in-process
// workers until the test ends.
func startFleet(t *testing.T, root string, workers int) *campaign.Client {
	t.Helper()
	srv, err := campaign.New(campaign.Options{Dir: root, LeaseTTL: 5 * time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &campaign.Worker{Server: hs.URL, Name: fmt.Sprintf("worker-%d", i), Poll: 10 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		hs.Close()
		srv.Close()
	})
	return &campaign.Client{Base: hs.URL}
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

// Every shard count × worker count must produce a CampaignResult
// bit-identical to the single-loop engine's, and a campaign directory
// holding only the journal that engine writes: its header and trials.
func TestShardCountInvariance(t *testing.T) {
	const seed, n = 29, 60
	refRes, meta := referenceRun(t, testSpec(seed, n, 1))

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				root := t.TempDir()
				client := startFleet(t, root, w)
				sub, status, err := client.Submit(context.Background(), testSpec(seed, n, k))
				if err != nil || status != http.StatusCreated {
					t.Fatalf("submit returned HTTP %d, %v; want %d", status, err, http.StatusCreated)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				res, err := client.WaitResult(ctx, sub.ID, 5*time.Millisecond, nil)
				if err != nil {
					t.Fatalf("campaign %s did not complete: %v", sub.ID, err)
				}
				assertSameResult(t, res, refRes)
				campaigntest.AssertJournal(t, filepath.Join(root, sub.ID), meta, refRes.Trials, nil)
			})
		}
	}
}
