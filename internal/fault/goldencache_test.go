package fault

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ipas/internal/interp"
	"ipas/internal/lang"
)

// A golden-cache hit must return byte-identical results to a cold
// compute: the golden Result itself and every trial of a campaign run
// against it.
func TestGoldenCacheHitBitIdentical(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 60

	// Cold reference, caching disabled: always recomputes.
	cold := &Campaign{Prog: p, Verify: verify, Seed: 9, NoGoldenCache: true}
	coldPrep, err := cold.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if coldPrep.GoldenCached {
		t.Fatal("NoGoldenCache campaign reported a cache hit")
	}
	coldRes, err := cold.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	// Prime a private cache, then hit it from a separately compiled
	// program with identical content (the cross-campaign sharing case).
	gc := NewGoldenCache(8)
	prime := &Campaign{Prog: p, Verify: verify, Seed: 9, GoldenCache: gc}
	primePrep, err := prime.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if primePrep.GoldenCached {
		t.Fatal("first Prepare on an empty cache reported a hit")
	}
	p2, _ := compileCampaignProg(t)
	warm := &Campaign{Prog: p2, Verify: verify, Seed: 9, GoldenCache: gc}
	warmPrep, err := warm.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !warmPrep.GoldenCached {
		t.Fatal("second Prepare of identical content missed the cache")
	}
	if gc.Hits() != 1 || gc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", gc.Hits(), gc.Misses())
	}
	if !reflect.DeepEqual(warmPrep.Golden, coldPrep.Golden) {
		t.Fatalf("cached golden differs from cold compute:\n%+v\nvs\n%+v",
			warmPrep.Golden, coldPrep.Golden)
	}
	if warmPrep.Population != coldPrep.Population {
		t.Fatalf("population %d vs %d", warmPrep.Population, coldPrep.Population)
	}

	warmRes, err := warm.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(warmRes.Trials) != len(coldRes.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(warmRes.Trials), len(coldRes.Trials))
	}
	for i := range coldRes.Trials {
		if warmRes.Trials[i] != coldRes.Trials[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, warmRes.Trials[i], coldRes.Trials[i])
		}
	}
	if warmRes.Counts != coldRes.Counts {
		t.Fatalf("outcome counts differ: %v vs %v", warmRes.Counts, coldRes.Counts)
	}
	if warmRes.GoldenDyn != coldRes.GoldenDyn {
		t.Fatalf("GoldenDyn %d vs %d", warmRes.GoldenDyn, coldRes.GoldenDyn)
	}
}

// A campaign cancelled mid-run and resumed from its journal with a warm
// golden cache must be bit-identical to an uninterrupted, uncached
// campaign: the cached golden run anchors the same plans, budgets and
// classifications.
func TestGoldenCacheCancelResumeBitIdentical(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 50

	ref := &Campaign{Prog: p, Verify: verify, Seed: 21, NoGoldenCache: true}
	refRes, err := ref.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	gc := NewGoldenCache(8)
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c1 := &Campaign{
		Prog: p, Verify: verify, Seed: 21, Workers: 2, Journal: j1, GoldenCache: gc,
		Progress: func(done, total, failed, deadlocked int) {
			if done >= 10 {
				cancel()
			}
		},
	}
	if _, err := c1.RunContext(ctx, n); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume in a "new process" (freshly compiled program), golden
	// served from the warm cache.
	p2, _ := compileCampaignProg(t)
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2 := &Campaign{Prog: p2, Verify: verify, Seed: 21, Workers: 2, Journal: j2, GoldenCache: gc}
	prep, err := c2.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !prep.GoldenCached {
		t.Fatal("resume did not hit the warm golden cache")
	}
	resumed, err := c2.RunContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Completed != n {
		t.Fatalf("resumed campaign completed %d/%d", resumed.Completed, n)
	}
	for i := range refRes.Trials {
		if resumed.Trials[i] != refRes.Trials[i] {
			t.Fatalf("trial %d differs after cached resume: %+v vs %+v",
				i, resumed.Trials[i], refRes.Trials[i])
		}
	}
	if resumed.Counts != refRes.Counts {
		t.Fatalf("outcome counts differ: %v vs %v", resumed.Counts, refRes.Counts)
	}
}

// Concurrent Prepares of the same content share one compute: exactly
// one golden run executes, everyone else blocks and adopts its result.
func TestGoldenCacheConcurrentPrepareSharesCompute(t *testing.T) {
	const workers = 8
	gc := NewGoldenCache(8)
	var wg sync.WaitGroup
	preps := make([]*Prepared, workers)
	for i := 0; i < workers; i++ {
		p, verify := compileCampaignProg(t)
		c := &Campaign{Prog: p, Verify: verify, Seed: 4, GoldenCache: gc}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prep, err := c.Prepare(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			preps[i] = prep
		}(i)
	}
	wg.Wait()
	if gc.Misses() != 1 {
		t.Fatalf("%d golden runs executed, want 1 (hits=%d)", gc.Misses(), gc.Hits())
	}
	if gc.Hits() != workers-1 {
		t.Fatalf("hits=%d, want %d", gc.Hits(), workers-1)
	}
	for i := 1; i < workers; i++ {
		if preps[i].Golden != preps[0].Golden {
			t.Fatalf("prepare %d did not share the cached golden result", i)
		}
	}
}

// A trapped golden run must fail Prepare and leave no cache entry
// behind — the next Prepare retries instead of replaying the failure.
func TestGoldenCacheTrapNotCached(t *testing.T) {
	m, err := lang.Compile(`func main() { var z int = 0; out_i64(0, 1 / z); }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	gc := NewGoldenCache(8)
	c := &Campaign{Prog: p, Verify: func(_, _ *interp.Result) bool { return true }, GoldenCache: gc}
	for i := 0; i < 2; i++ {
		if _, err := c.Prepare(context.Background()); err == nil {
			t.Fatalf("attempt %d: Prepare of a trapping program succeeded", i)
		}
		if gc.Len() != 0 {
			t.Fatalf("attempt %d: failed golden run left %d cache entries", i, gc.Len())
		}
	}
}

// The cache key includes the execution configuration: the same program
// under a different address-space size is a different golden run.
func TestGoldenCacheKeyedByConfig(t *testing.T) {
	p, verify := compileCampaignProg(t)
	gc := NewGoldenCache(8)
	a := &Campaign{Prog: p, Verify: verify, GoldenCache: gc}
	if _, err := a.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := &Campaign{
		Prog: p, Verify: verify, GoldenCache: gc,
		Config: interp.Config{HeapBytes: 32 << 20},
	}
	prep, err := b.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prep.GoldenCached {
		t.Fatal("different HeapBytes hit the same cache entry")
	}
	if gc.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", gc.Len())
	}
}

// Capacity bounds the cache: older entries are evicted LRU.
func TestGoldenCacheLRUEviction(t *testing.T) {
	p, verify := compileCampaignProg(t)
	gc := NewGoldenCache(1)
	a := &Campaign{Prog: p, Verify: verify, GoldenCache: gc}
	if _, err := a.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := &Campaign{
		Prog: p, Verify: verify, GoldenCache: gc,
		Config: interp.Config{HeapBytes: 32 << 20},
	}
	if _, err := b.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gc.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 (capacity)", gc.Len())
	}
	// The first key was evicted: preparing it again is a miss.
	prep, err := a.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prep.GoldenCached {
		t.Fatal("evicted entry reported a hit")
	}
}

// Sectioned campaigns on separately compiled copies of one program
// share the cached golden run (trace, site counts); each program
// projects its own sections.
func TestGoldenCacheSectioned(t *testing.T) {
	gc := NewGoldenCache(8)
	var totals []int
	for i := 0; i < 2; i++ {
		c := sectionedCampaign(t, 2)
		c.GoldenCache = gc
		prep, err := c.Prepare(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if prep.GoldenCached != (i == 1) {
			t.Fatalf("prepare %d: GoldenCached=%v", i, prep.GoldenCached)
		}
		totals = append(totals, prep.SectionTotal())
		res, err := prep.RunSections(context.Background(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.Plan.Total {
			t.Fatalf("prepare %d: completed %d of %d", i, res.Completed, res.Plan.Total)
		}
	}
	if totals[0] != totals[1] {
		t.Fatalf("section totals differ across cache hit: %d vs %d", totals[0], totals[1])
	}
}
