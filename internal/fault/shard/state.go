package shard

import "fmt"

// State enumerates the lifecycle of one shard. The campaign
// coordinator's lease registry (internal/campaign) drives it and adds
// time-bounded leases on top; the transition rules — a shard is retried
// through quarantine with a bounded budget, and only exhaustion makes
// it terminal — live here, apart from the leases.
type State uint8

const (
	// StateQueued: runnable, waiting for a worker (or a remote lease).
	StateQueued State = iota
	// StateRunning: executing under a worker or an active lease.
	StateRunning
	// StateBackoff: quarantined after a failed attempt, waiting out
	// its backoff delay before becoming runnable again.
	StateBackoff
	// StateDone: every trial in the shard's range is settled.
	StateDone
	// StateFailed: the retry budget is exhausted; the shard's
	// unexecuted trials are recorded as TrialFailed.
	StateFailed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// StateMachine tracks the dispatch state and quarantine accounting of
// every shard in one campaign. It owns the truth about what each shard
// is doing and validates every transition (an invalid one panics —
// such a transition is an engine bug, never an environmental
// condition); engines own their queues, timers, and lease deadlines.
//
// Not safe for concurrent use on its own: callers serialize access
// under their engine lock.
type StateMachine struct {
	states   []State
	attempts []int
	terminal int
}

// NewStateMachine returns a machine with every shard queued and zero
// attempts.
func NewStateMachine(shards int) *StateMachine {
	return &StateMachine{states: make([]State, shards), attempts: make([]int, shards)}
}

// Len returns the shard count.
func (m *StateMachine) Len() int { return len(m.states) }

// State returns shard s's current state.
func (m *StateMachine) State(s int) State { return m.states[s] }

// Attempts returns how many attempts shard s has started.
func (m *StateMachine) Attempts(s int) int { return m.attempts[s] }

// Acquire starts an attempt on shard s and returns its 1-based attempt
// number. A shard is acquirable from StateQueued, or directly from
// StateBackoff for engines whose backoff timers feed their own run
// queue: there the pop is the requeue.
func (m *StateMachine) Acquire(s int) int {
	m.mustBe(s, "Acquire", StateQueued, StateBackoff)
	m.states[s] = StateRunning
	m.attempts[s]++
	return m.attempts[s]
}

// Complete marks a running shard done.
func (m *StateMachine) Complete(s int) {
	m.mustBe(s, "Complete", StateRunning)
	m.states[s] = StateDone
	m.terminal++
}

// Settle marks a queued shard done without charging an attempt: every
// trial in its range was restored from a durable journal, so no
// execution is owed.
func (m *StateMachine) Settle(s int) {
	m.mustBe(s, "Settle", StateQueued)
	m.states[s] = StateDone
	m.terminal++
}

// Quarantine moves a running shard into backoff after a failed
// attempt (panic, watchdog expiry, journal write failure, expired or
// explicitly failed lease).
func (m *StateMachine) Quarantine(s int) {
	m.mustBe(s, "Quarantine", StateRunning)
	m.states[s] = StateBackoff
}

// Requeue makes a quarantined shard runnable again once its backoff
// delay has elapsed.
func (m *StateMachine) Requeue(s int) {
	m.mustBe(s, "Requeue", StateBackoff)
	m.states[s] = StateQueued
}

// Fail terminally quarantines a shard whose retry budget is exhausted,
// from StateRunning (the attempt that broke the budget just finished)
// or StateBackoff (an engine deciding at expiry time).
func (m *StateMachine) Fail(s int) {
	m.mustBe(s, "Fail", StateRunning, StateBackoff)
	m.states[s] = StateFailed
	m.terminal++
}

// Terminal counts shards in a final state.
func (m *StateMachine) Terminal() int { return m.terminal }

// AllTerminal reports whether every shard reached a final state.
func (m *StateMachine) AllTerminal() bool { return m.terminal == len(m.states) }

// Counts tallies shards per state.
func (m *StateMachine) Counts() (queued, running, backoff, done, failed int) {
	for _, st := range m.states {
		switch st {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StateBackoff:
			backoff++
		case StateDone:
			done++
		case StateFailed:
			failed++
		}
	}
	return
}

// mustBe panics unless shard s is in one of the allowed states.
func (m *StateMachine) mustBe(s int, op string, allowed ...State) {
	for _, a := range allowed {
		if m.states[s] == a {
			return
		}
	}
	panic(fmt.Sprintf("shard: %s(%d) in state %v", op, s, m.states[s]))
}
