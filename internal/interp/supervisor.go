package interp

import (
	"fmt"
	"strings"
)

// This file implements the rank supervisor: deterministic, structural
// deadlock detection for the simulated MPI runtime. The paper's §4.4.1
// relies on MPI's abort-propagation default — any rank failure becomes
// a job-level symptom — and a hang is exactly the failure mode that
// does NOT produce a local trap. Deciding "these ranks are hung" with a
// wall-clock timer makes the modeled TrapDeadlock outcome depend on
// machine load, which violates the bit-identical-resume and
// worker-invariance invariants every campaign layer builds on. The
// supervisor instead tracks each rank's state and declares deadlock the
// instant the job is provably stuck, with full per-rank attribution.

// rankPhase is a rank's position in the supervision state machine:
//
//	running ──block──▶ blocked ──resume──▶ running
//	running/blocked ──finish──▶ exited | trapped   (terminal)
type rankPhase uint8

const (
	phaseRunning rankPhase = iota
	phaseBlocked
	phaseExited
	phaseTrapped
)

// opKind classifies the MPI operation a rank is blocked in.
type opKind uint8

const (
	opSend opKind = iota
	opRecv
)

func (k opKind) String() string {
	if k == opSend {
		return "send"
	}
	return "recv"
}

// pendingOp describes the operation a blocked rank is parked on.
type pendingOp struct {
	kind     opKind
	peer     int
	tag      int64
	executed int64 // rank's dynamic instruction count at block time
}

// blocked describes the parked operation in its trap message.
func (op pendingOp) blocked() string {
	if op.kind == opSend {
		return fmt.Sprintf("send to %d tag %d blocked (mailbox full)", op.peer, op.tag)
	}
	return fmt.Sprintf("recv from %d tag %d blocked", op.peer, op.tag)
}

// RankBlock attributes one blocked rank inside a DeadlockReport.
type RankBlock struct {
	// Rank is the blocked rank's id.
	Rank int `json:"rank"`
	// Op is the blocked operation kind ("send" or "recv").
	Op string `json:"op"`
	// Peer is the operation's partner rank; Tag its message tag.
	Peer int   `json:"peer"`
	Tag  int64 `json:"tag"`
	// MailboxFull marks a send parked on a full mailbox (the eager
	// buffer to Peer is exhausted and no one drains it).
	MailboxFull bool `json:"mailbox_full,omitempty"`
	// Executed is the rank's dynamic instruction count when it blocked
	// — deterministic, so reports are bit-identical across runs.
	Executed int64 `json:"executed"`
}

// String renders one line of attribution, e.g.
// "rank 2: recv from 0 tag 5 after 1042 instrs".
func (b RankBlock) String() string {
	dir := "from"
	if b.Op == "send" {
		dir = "to"
	}
	s := fmt.Sprintf("rank %d: %s %s %d tag %d after %d instrs", b.Rank, b.Op, dir, b.Peer, b.Tag, b.Executed)
	if b.MailboxFull {
		s += " (mailbox full)"
	}
	return s
}

// DeadlockReport is the structural-deadlock attribution produced by the
// rank supervisor: every blocked rank with its pending operation, plus
// the ranks that exited cleanly while peers still waited on them. Its
// content is a pure function of the program and configuration — no
// wall-clock value enters — so it is bit-identical across runs, worker
// counts, and checkpoint/resume.
type DeadlockReport struct {
	Blocked []RankBlock `json:"blocked"`
	Exited  []int       `json:"exited,omitempty"`
}

// Summary renders the report as a single line (journal- and
// log-friendly), preserving the per-rank attribution.
func (d *DeadlockReport) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "structural deadlock: %d rank(s) blocked", len(d.Blocked))
	if len(d.Exited) > 0 {
		fmt.Fprintf(&sb, ", %d exited", len(d.Exited))
	}
	for i, b := range d.Blocked {
		if i == 0 {
			sb.WriteString(" [")
		} else {
			sb.WriteString("; ")
		}
		sb.WriteString(b.String())
	}
	if len(d.Blocked) > 0 {
		sb.WriteString("]")
	}
	return sb.String()
}

// String renders a multi-line human-readable report (the CLI format).
func (d *DeadlockReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "deadlock report: %d rank(s) blocked, no operation can match\n", len(d.Blocked))
	for _, b := range d.Blocked {
		fmt.Fprintf(&sb, "  %s\n", b.String())
	}
	for _, r := range d.Exited {
		fmt.Fprintf(&sb, "  rank %d: exited cleanly\n", r)
	}
	return sb.String()
}

// The supervisor's state lives in comm under comm.mu, next to the
// mailboxes it reasons about; every method below is called with comm.mu
// held unless it says otherwise. It declares deadlock structurally: the
// instant no rank is running, at least one is blocked, no rank has
// trapped, and no pending operation can make progress. Every state
// transition that can complete the quiescence condition re-evaluates
// it, so detection is immediate (no timer is involved) and the declared
// configuration is the job's unique final quiescent state — which is
// what makes the report deterministic.

// block records that a rank is about to park on an MPI operation and
// re-evaluates the deadlock condition.
func (c *comm) block(rank int, op pendingOp) {
	c.phase[rank] = phaseBlocked
	c.ops[rank] = op
	c.running--
	c.evaluate()
}

// resume records that a parked operation completes.
func (c *comm) resume(rank int) {
	c.phase[rank] = phaseRunning
	c.running++
}

// parkedOn reports whether rank is parked on a kind operation with
// peer, i.e. waits on the one mailbox the caller just changed.
func (c *comm) parkedOn(rank int, kind opKind, peer int) bool {
	return c.phase[rank] == phaseBlocked && c.ops[rank].kind == kind && c.ops[rank].peer == peer
}

// progressable reports whether a blocked rank's operation can
// complete: a parked send iff its mailbox has room, a parked recv iff
// its mailbox holds a message.
func (c *comm) progressable(rank int) bool {
	op := c.ops[rank]
	if op.kind == opSend {
		return len(c.boxes[rank*c.size+op.peer]) < mailboxCap
	}
	return len(c.boxes[op.peer*c.size+rank]) > 0
}

// finish records a rank's termination; it takes comm.mu itself. The
// run loop calls it once a rank's goroutine returns.
func (c *comm) finish(rank int, trap Trap) {
	c.mu.Lock()
	c.end(rank, trap)
	c.mu.Unlock()
}

// end records a rank's termination: a clean exit re-evaluates the
// deadlock condition (peers may now be provably stuck waiting on the
// exited rank); a trap suppresses any future declaration — the abort
// path wakes the blocked peers and the primary trap is the outcome.
// end is idempotent: a parked operation marks its own trap before
// unwinding, and the run loop marks every rank again once its
// goroutine returns.
func (c *comm) end(rank int, trap Trap) {
	switch c.phase[rank] {
	case phaseExited, phaseTrapped:
		return
	case phaseRunning:
		c.running--
	}
	if trap == TrapNone {
		c.phase[rank] = phaseExited
		c.evaluate()
		return
	}
	c.phase[rank] = phaseTrapped
	c.trapped = true
}

// evaluate declares deadlock iff the job is structurally stuck, and
// rings every blocked rank when it does. It reads the mailboxes under
// the same lock as the phases, so a delivered message is always seen:
// no rank can look stuck while its operation has completed.
func (c *comm) evaluate() {
	if c.report != nil || c.trapped || c.running > 0 {
		return
	}
	blocked := 0
	for r, ph := range c.phase {
		if ph != phaseBlocked {
			continue
		}
		blocked++
		if c.progressable(r) {
			return
		}
	}
	if blocked == 0 {
		return // every rank exited cleanly: normal termination
	}
	rep := &DeadlockReport{}
	for r, ph := range c.phase {
		switch ph {
		case phaseBlocked:
			op := c.ops[r]
			rep.Blocked = append(rep.Blocked, RankBlock{
				Rank: r, Op: op.kind.String(), Peer: op.peer, Tag: op.tag,
				MailboxFull: op.kind == opSend,
				Executed:    op.executed,
			})
			c.ring(r)
		case phaseExited:
			rep.Exited = append(rep.Exited, r)
		}
	}
	c.report = rep
}
