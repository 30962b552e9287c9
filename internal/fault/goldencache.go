package fault

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ipas/internal/interp"
)

// GoldenCache memoizes golden (fault-free) runs across campaigns. A
// campaign's trial count multiplies executions of the same program —
// and sweeps, shards, resumed checkpoints and server workers multiply
// campaigns over the same (workload, input) — but the golden run each
// one opens with is a pure function of the program content and the
// execution configuration. The cache keys on exactly that pure-function
// domain:
//
//	(program fingerprint, ranks, heap, budget, sectioned)
//
// where the fingerprint (interp.Program.Fingerprint) hashes the printed
// IR — which embeds the workload's baked-in input — plus the injectable
// bitmap and site count, so two programs compiled from the same module
// with the same fault model share an entry even across processes'
// recompiles, while any change to code, input or fault model misses.
//
// Only clean results (TrapNone) are cached: a trapped or cancelled
// golden run fails Prepare and must be re-attempted, not replayed.
// Concurrent Prepares of the same key share one compute — later
// arrivals block on the first; if the computing Prepare fails, one
// waiter takes over rather than inheriting the error.
//
// Only the golden Result is cached — pure content: outputs, counts,
// per-site counts, the section boundary trace. The section projection
// a sectioned run tracks belongs to the Program (built once per
// compiled program, like its fingerprint), so a hit reuses the run and
// nothing else.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	order   []goldenKey // LRU order, oldest first
	cap     int

	hits   atomic.Int64
	misses atomic.Int64
}

type goldenKey struct {
	progFP    string
	ranks     int
	heap      int64
	maxInstrs int64
	sectioned bool
}

// goldenEntry is a compute-once slot. ready is closed when the compute
// finishes; ok reports whether it succeeded (a failed compute removes
// the entry, so waiters observing !ok retry and one of them becomes the
// next computer).
type goldenEntry struct {
	ready chan struct{}
	ok    bool

	golden *interp.Result
}

// DefaultGoldenCacheCap bounds SharedGoldenCache; each entry holds one
// golden Result (outputs, per-site counts, optionally a section trace).
const DefaultGoldenCacheCap = 128

// SharedGoldenCache is the process-wide cache campaigns use by default.
// Campaign.NoGoldenCache opts a campaign out; Campaign.GoldenCache
// points one at a private cache (isolation in tests, bounded lifetime
// in long-lived servers).
var SharedGoldenCache = NewGoldenCache(DefaultGoldenCacheCap)

// NewGoldenCache creates a cache holding at most capacity entries
// (evicting least-recently-used beyond that). capacity <= 0 selects
// DefaultGoldenCacheCap.
func NewGoldenCache(capacity int) *GoldenCache {
	if capacity <= 0 {
		capacity = DefaultGoldenCacheCap
	}
	return &GoldenCache{
		entries: make(map[goldenKey]*goldenEntry),
		cap:     capacity,
	}
}

// Hits and Misses report lookup counters (hits include waits on an
// in-flight compute that succeeded).
func (gc *GoldenCache) Hits() int64   { return gc.hits.Load() }
func (gc *GoldenCache) Misses() int64 { return gc.misses.Load() }

// Len reports the number of completed entries currently held.
func (gc *GoldenCache) Len() int {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return len(gc.entries)
}

// lookup returns the entry for key, or claims the compute slot: claimed
// is true when the caller must run the golden run and finish with
// complete or abandon.
func (gc *GoldenCache) lookup(key goldenKey) (e *goldenEntry, claimed bool) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if e, found := gc.entries[key]; found {
		gc.touch(key)
		return e, false
	}
	e = &goldenEntry{ready: make(chan struct{})}
	gc.entries[key] = e
	gc.order = append(gc.order, key)
	gc.evict()
	return e, true
}

// touch moves key to the most-recently-used position.
func (gc *GoldenCache) touch(key goldenKey) {
	for i, k := range gc.order {
		if k == key {
			gc.order = append(append(gc.order[:i:i], gc.order[i+1:]...), key)
			return
		}
	}
}

// evict drops least-recently-used completed entries beyond capacity.
// In-flight entries are skipped: their computer still expects to
// complete them, and waiters hold the pointer regardless.
func (gc *GoldenCache) evict() {
	for len(gc.entries) > gc.cap {
		victim := -1
		for i, k := range gc.order {
			e := gc.entries[k]
			select {
			case <-e.ready:
				victim = i
			default:
				continue
			}
			break
		}
		if victim < 0 {
			return // everything in flight; capacity is advisory then
		}
		delete(gc.entries, gc.order[victim])
		gc.order = append(gc.order[:victim], gc.order[victim+1:]...)
	}
}

// complete publishes a successful compute.
func (gc *GoldenCache) complete(key goldenKey, e *goldenEntry) {
	gc.mu.Lock()
	e.ok = true
	gc.mu.Unlock()
	close(e.ready)
}

// abandon withdraws a failed compute so the key can be retried.
func (gc *GoldenCache) abandon(key goldenKey, e *goldenEntry) {
	gc.mu.Lock()
	if cur, found := gc.entries[key]; found && cur == e {
		delete(gc.entries, key)
		for i, k := range gc.order {
			if k == key {
				gc.order = append(gc.order[:i], gc.order[i+1:]...)
				break
			}
		}
	}
	gc.mu.Unlock()
	close(e.ready)
}

// goldenRun resolves the campaign's golden run through the cache:
// cached result on a hit, compute-and-fill on a miss, wait-then-retry
// when another Prepare is already computing the same key. compute must
// return a clean result or an error; its successful result is cached
// verbatim and shared, so callers treat it as immutable.
func (gc *GoldenCache) goldenRun(
	ctx context.Context,
	key goldenKey,
	compute func() (*interp.Result, error),
) (*interp.Result, bool, error) {
	for {
		e, claimed := gc.lookup(key)
		if claimed {
			golden, err := compute()
			if err != nil {
				gc.abandon(key, e)
				return nil, false, err
			}
			e.golden = golden
			gc.complete(key, e)
			gc.misses.Add(1)
			return e.golden, false, nil
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("fault: golden run cancelled: %w", ctx.Err())
		}
		if e.ok {
			gc.hits.Add(1)
			return e.golden, true, nil
		}
		// The computing Prepare failed and withdrew the entry; take
		// over (or wait on whoever beat us to the retry).
	}
}
