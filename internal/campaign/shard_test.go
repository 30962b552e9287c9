package campaign

import "testing"

func TestRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {7, 1}, {7, 2}, {7, 7}, {60, 7}, {100, 16}, {5, 5},
	} {
		prev := 0
		for s := 0; s < tc.k; s++ {
			lo, hi := shardRange(tc.n, tc.k, s)
			if lo != prev {
				t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d (gap or overlap)", tc.n, tc.k, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d k=%d: shard %d has negative range [%d,%d)", tc.n, tc.k, s, lo, hi)
			}
			if size := hi - lo; size > tc.n/tc.k+1 || size < tc.n/tc.k {
				t.Fatalf("n=%d k=%d: shard %d size %d not balanced", tc.n, tc.k, s, size)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d k=%d: partition covers [0,%d), want [0,%d)", tc.n, tc.k, prev, tc.n)
		}
	}
}

// The state machine's transition rules are the quarantine semantics
// the coordinator's lease registry relies on.
func TestStateMachineLifecycle(t *testing.T) {
	m := newShardMachine(4)
	if len(m.states) != 4 || m.terminal != 0 || m.allTerminal() {
		t.Fatalf("fresh machine: len=%d terminal=%d", len(m.states), m.terminal)
	}
	for s := 0; s < 4; s++ {
		if got := m.state(s); got != shardQueued {
			t.Fatalf("shard %d starts in %v, want queued", s, got)
		}
	}

	// Happy path: acquire → complete.
	if a := m.acquire(0); a != 1 {
		t.Fatalf("first acquire attempt = %d, want 1", a)
	}
	m.complete(0)
	if m.state(0) != shardDone || m.terminal != 1 {
		t.Fatalf("after complete: state=%v terminal=%d", m.state(0), m.terminal)
	}

	// Quarantine loop: acquire → quarantine → requeue → acquire counts
	// attempts monotonically, and the attempt that exhausts the budget
	// fails the shard from running.
	m.acquire(1)
	m.quarantine(1)
	if m.state(1) != shardBackoff {
		t.Fatalf("after quarantine: %v", m.state(1))
	}
	m.requeue(1)
	if a := m.acquire(1); a != 2 {
		t.Fatalf("second acquire attempt = %d, want 2", a)
	}
	m.quarantine(1)
	m.requeue(1)
	if a := m.acquire(1); a != 3 {
		t.Fatalf("third acquire attempt = %d, want 3", a)
	}
	m.fail(1)
	if m.state(1) != shardFailed || m.attemptsOf(1) != 3 {
		t.Fatalf("after fail: state=%v attempts=%d", m.state(1), m.attemptsOf(1))
	}

	// A first attempt may exhaust the budget too.
	m.acquire(2)
	m.fail(2)

	// A journal-restored shard settles without charging an attempt.
	m.settle(3)
	if m.state(3) != shardDone || m.attemptsOf(3) != 0 {
		t.Fatalf("after settle: state=%v attempts=%d", m.state(3), m.attemptsOf(3))
	}
	if !m.allTerminal() {
		t.Fatal("machine not terminal after every shard finished")
	}
	want := []shardState{shardDone, shardFailed, shardFailed, shardDone}
	for s, st := range want {
		if m.state(s) != st {
			t.Fatalf("shard %d ends %v, want %v", s, m.state(s), st)
		}
	}
}

func TestStateMachineRejectsInvalidTransitions(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(m *shardMachine)
	}{
		{"complete while queued", func(m *shardMachine) { m.complete(0) }},
		{"quarantine while queued", func(m *shardMachine) { m.quarantine(0) }},
		{"requeue while queued", func(m *shardMachine) { m.requeue(0) }},
		{"fail while queued", func(m *shardMachine) { m.fail(0) }},
		{"acquire while running", func(m *shardMachine) { m.acquire(0); m.acquire(0) }},
		{"acquire after done", func(m *shardMachine) { m.acquire(0); m.complete(0); m.acquire(0) }},
		{"fail after done", func(m *shardMachine) { m.acquire(0); m.complete(0); m.fail(0) }},
		// Backoff leaves only through requeue: the coordinator's
		// sweeper requeues, and only a running attempt can fail.
		{"acquire from backoff", func(m *shardMachine) { m.acquire(0); m.quarantine(0); m.acquire(0) }},
		{"fail from backoff", func(m *shardMachine) { m.acquire(0); m.quarantine(0); m.fail(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid transition did not panic")
				}
			}()
			tc.fn(newShardMachine(1))
		})
	}
}
