package campaign

import "fmt"

// A campaign's trial space is a pure index partition: trial t's plan
// is a pure function of (Seed, t) (see fault.Prepared.Plans), so
// splitting [0, n) into K contiguous ranges changes nothing about what
// any trial executes — only where and when. Every record carries its
// global trial index, so all shards journal into the campaign's one
// journal, whose header is the one a local run writes: the partition
// decides dispatch only, and a campaign resumes at any shard count.

// shardRange returns shard s's trial-index range [lo, hi) in the
// deterministic contiguous partition of n trials into k shards: ranges
// differ in size by at most one and cover [0, n) exactly.
func shardRange(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// shardState enumerates the lifecycle of one shard. The coordinator
// adds time-bounded leases on top; the transition rules — a shard is
// retried through quarantine with a bounded budget, and only
// exhaustion makes it terminal — live in shardMachine, apart from the
// leases.
type shardState uint8

const (
	// shardQueued: runnable, waiting for a lease.
	shardQueued shardState = iota
	// shardRunning: executing under an active lease.
	shardRunning
	// shardBackoff: quarantined after a failed attempt, waiting out
	// its backoff delay before becoming runnable again.
	shardBackoff
	// shardDone: every trial in the shard's range is settled.
	shardDone
	// shardFailed: the retry budget is exhausted; the shard's
	// unexecuted trials are recorded as TrialFailed.
	shardFailed
)

// String names the state (ShardStatus.State on the wire).
func (s shardState) String() string {
	switch s {
	case shardQueued:
		return "queued"
	case shardRunning:
		return "running"
	case shardBackoff:
		return "backoff"
	case shardDone:
		return "done"
	case shardFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// shardMachine tracks the dispatch state and quarantine accounting of
// every shard in one campaign. It owns the truth about what each shard
// is doing and validates every transition (an invalid one panics —
// such a transition is a coordinator bug, never an environmental
// condition); the coordinator owns leases, timers and deadlines.
//
// Not safe for concurrent use on its own: the coordinator serializes
// access under its lock.
type shardMachine struct {
	states   []shardState
	attempts []int
	terminal int
}

// newShardMachine returns a machine with every shard queued and zero
// attempts.
func newShardMachine(shards int) *shardMachine {
	return &shardMachine{states: make([]shardState, shards), attempts: make([]int, shards)}
}

// state returns shard s's current state.
func (m *shardMachine) state(s int) shardState { return m.states[s] }

// attemptsOf returns how many attempts shard s has started.
func (m *shardMachine) attemptsOf(s int) int { return m.attempts[s] }

// acquire starts an attempt on a queued shard and returns its 1-based
// attempt number. A quarantined shard must be requeued first.
func (m *shardMachine) acquire(s int) int {
	m.mustBe(s, "acquire", shardQueued)
	m.states[s] = shardRunning
	m.attempts[s]++
	return m.attempts[s]
}

// complete marks a running shard done.
func (m *shardMachine) complete(s int) {
	m.mustBe(s, "complete", shardRunning)
	m.states[s] = shardDone
	m.terminal++
}

// settle marks a queued shard done without charging an attempt: every
// trial in its range was restored from a durable journal, so no
// execution is owed.
func (m *shardMachine) settle(s int) {
	m.mustBe(s, "settle", shardQueued)
	m.states[s] = shardDone
	m.terminal++
}

// quarantine moves a running shard into backoff after a failed attempt
// (expired, surrendered or failed lease).
func (m *shardMachine) quarantine(s int) {
	m.mustBe(s, "quarantine", shardRunning)
	m.states[s] = shardBackoff
}

// requeue makes a quarantined shard runnable again once its backoff
// delay has elapsed.
func (m *shardMachine) requeue(s int) {
	m.mustBe(s, "requeue", shardBackoff)
	m.states[s] = shardQueued
}

// fail terminally quarantines a running shard whose attempt just
// exhausted the retry budget.
func (m *shardMachine) fail(s int) {
	m.mustBe(s, "fail", shardRunning)
	m.states[s] = shardFailed
	m.terminal++
}

// allTerminal reports whether every shard reached a final state.
func (m *shardMachine) allTerminal() bool { return m.terminal == len(m.states) }

// mustBe panics unless shard s is in state want.
func (m *shardMachine) mustBe(s int, op string, want shardState) {
	if m.states[s] != want {
		panic(fmt.Sprintf("campaign: shard %s(%d) in state %v", op, s, m.states[s]))
	}
}
