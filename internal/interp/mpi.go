package interp

import (
	"fmt"
	"sync"
	"time"
)

// comm is the simulated MPI communicator. Point-to-point messages use
// eager buffered channels per directed (src, dst) pair with in-order
// tag matching; collectives are built on top of point-to-point with
// reserved system tags, mirroring a tree-less gather+broadcast
// implementation. If any rank traps, the job aborts (the paper's §4.4.1
// relies on exactly this MPI default).
//
// Blocked operations are resolved in a FIXED priority order — message
// delivery, structural deadlock, job abort, cancellation, watchdog —
// never by Go's randomized select. Delivery outranking abort means a
// live rank always drains whatever progress is available before it
// observes the teardown, which keeps per-rank executed counts and
// outputs deterministic; deadlock is declared structurally by the rank
// supervisor (supervisor.go), never by a timer.
type comm struct {
	size  int
	boxes [][]chan message // boxes[src][dst]
	done  chan struct{}    // closed on job abort
	// abortOnce guards the close of done: ranks trap concurrently, and
	// each trapping rank aborts the job.
	abortOnce sync.Once
	// cancel, when non-nil, is the embedding context's Done channel;
	// blocked MPI operations wake on it with TrapCancelled.
	cancel <-chan struct{}
	// watchdog bounds the wall-clock blocking of one MPI operation as
	// defense in depth against supervisor bugs. Its expiry raises
	// TrapWatchdog — an infrastructure error, never a modeled outcome:
	// genuine deadlocks are detected structurally and instantly.
	watchdog time.Duration
	// sup is the rank supervisor: per-rank state tracking and
	// structural deadlock declaration.
	sup *supervisor
}

type message struct {
	tag int64
	// data must be owned by the message: payloads sit in mailbox
	// channels across sender returns, so senders pass freshly
	// allocated slices, never frame-arena memory (which is reused as
	// soon as the sending call unwinds).
	data []Val
}

const (
	// System tags used by collectives (user tags must be >= 0).
	tagGather int64 = -1
	tagResult int64 = -2
)

func newComm(size int, watchdog time.Duration, cancel <-chan struct{}) *comm {
	c := &comm{size: size, done: make(chan struct{}), cancel: cancel, watchdog: watchdog}
	c.boxes = make([][]chan message, size)
	for s := 0; s < size; s++ {
		c.boxes[s] = make([]chan message, size)
		for d := 0; d < size; d++ {
			c.boxes[s][d] = make(chan message, 4096)
		}
	}
	c.sup = newSupervisor(c, size)
	return c
}

// abort wakes every blocked rank; first caller wins.
func (c *comm) abort() {
	c.abortOnce.Do(func() { close(c.done) })
}

func (c *comm) checkPeer(r *rank, peer int64) int {
	if peer < 0 || peer >= int64(c.size) {
		panic(trapPanic{TrapAbort, fmt.Sprintf("invalid MPI peer rank %d", peer)})
	}
	return int(peer)
}

// send delivers data to dst with an eager (buffered) protocol. The
// non-blocking fast path gives delivery priority over every teardown
// condition; a full mailbox takes the supervised blocked path.
func (c *comm) send(r *rank, dst, tag int64, data []Val) {
	d := c.checkPeer(r, dst)
	box := c.boxes[r.id][d]
	m := message{tag: tag, data: data}
	select {
	case box <- m:
		c.sup.sent(r.id, d)
		return
	default:
	}
	c.blockedSend(r, box, d, m)
}

// blockedSend parks a send whose mailbox is full under supervision.
func (c *comm) blockedSend(r *rank, box chan message, peer int, m message) {
	s := c.sup
	s.block(r.id, opSend, peer, m.tag, r.executed)
	what := fmt.Sprintf("send to %d tag %d blocked (mailbox full)", peer, m.tag)
	wd := time.NewTimer(c.watchdog)
	defer wd.Stop()
	expired := false
	for {
		// Fixed priority: delivery first, then the terminal conditions.
		select {
		case box <- m:
			s.resumeSend(r.id, peer)
			return
		default:
		}
		c.checkTerminal(r, expired, what)
		// Nothing is ready: park until any event, then re-resolve in
		// priority order (Go's select picks randomly when several cases
		// are ready; the loop re-check imposes the fixed order).
		select {
		case box <- m:
			s.resumeSend(r.id, peer)
			return
		case <-s.deadlocked:
		case <-c.done:
		case <-c.cancel:
		case <-wd.C:
			expired = true
		}
	}
}

// recv blocks until the in-order next message from src arrives; its tag
// and length must match (a mismatch is a runtime error, which becomes a
// visible symptom).
func (c *comm) recv(r *rank, src, tag int64, n int64) []Val {
	sp := c.checkPeer(r, src)
	box := c.boxes[sp][r.id]
	var m message
	select {
	case m = <-box:
		c.sup.received(sp, r.id)
	default:
		m = c.blockedRecv(r, box, sp, tag)
	}
	if m.tag != tag {
		panic(trapPanic{TrapAbort, fmt.Sprintf("MPI tag mismatch: want %d, got %d", tag, m.tag)})
	}
	if int64(len(m.data)) != n {
		panic(trapPanic{TrapAbort, fmt.Sprintf("MPI length mismatch: want %d, got %d", n, len(m.data))})
	}
	return m.data
}

// blockedRecv parks a receive whose mailbox is empty under supervision.
func (c *comm) blockedRecv(r *rank, box chan message, peer int, tag int64) message {
	s := c.sup
	s.block(r.id, opRecv, peer, tag, r.executed)
	what := fmt.Sprintf("recv from %d tag %d blocked", peer, tag)
	wd := time.NewTimer(c.watchdog)
	defer wd.Stop()
	expired := false
	for {
		select {
		case m := <-box:
			s.resumeRecv(r.id, peer)
			return m
		default:
		}
		c.checkTerminal(r, expired, what)
		select {
		case m := <-box:
			s.resumeRecv(r.id, peer)
			return m
		case <-s.deadlocked:
		case <-c.done:
		case <-c.cancel:
		case <-wd.C:
			expired = true
		}
	}
}

// checkTerminal raises the trap for a blocked operation's terminal
// conditions in the fixed priority order — structural deadlock, job
// abort, cancellation, watchdog — after the caller has already given
// message delivery its chance. It returns normally when the operation
// should keep blocking. Each panic path marks the rank's terminal state
// with the supervisor first, so a rank unwinding on an infrastructure
// condition (cancel, watchdog) can never be mistaken for a quiescent
// blocked rank by a later deadlock evaluation.
func (c *comm) checkTerminal(r *rank, expired bool, what string) {
	s := c.sup
	select {
	case <-s.deadlocked:
		s.finish(r.id, TrapDeadlock)
		panic(trapPanic{TrapDeadlock, "structural deadlock: " + what})
	default:
	}
	select {
	case <-c.done:
		s.finish(r.id, TrapAbort)
		panic(trapPanic{TrapAbort, "job aborted"})
	default:
	}
	if c.cancel != nil {
		select {
		case <-c.cancel:
			s.finish(r.id, TrapCancelled)
			panic(trapPanic{TrapCancelled, "execution cancelled"})
		default:
		}
	}
	if expired {
		s.finish(r.id, TrapWatchdog)
		panic(trapPanic{TrapWatchdog, fmt.Sprintf("infrastructure watchdog expired after %v: %s", c.watchdog, what)})
	}
}

// barrier blocks until every rank arrives.
func (c *comm) barrier(r *rank) { c.allreduceI64(r, 0, 0) }

// Reduction opcodes for the allreduce builtins.
const (
	ReduceSum = 0
	ReduceMin = 1
	ReduceMax = 2
)

func (c *comm) allreduceF64(r *rank, v float64, op int64) float64 {
	out := c.allreduce(r, FloatVal(v), func(a, b Val) Val {
		switch op {
		case ReduceMin:
			if b.F < a.F {
				return b
			}
			return a
		case ReduceMax:
			if b.F > a.F {
				return b
			}
			return a
		default:
			return FloatVal(a.F + b.F)
		}
	})
	return out.F
}

func (c *comm) allreduceI64(r *rank, v int64, op int64) int64 {
	out := c.allreduce(r, IntVal(v), func(a, b Val) Val {
		switch op {
		case ReduceMin:
			if b.I < a.I {
				return b
			}
			return a
		case ReduceMax:
			if b.I > a.I {
				return b
			}
			return a
		default:
			return IntVal(a.I + b.I)
		}
	})
	return out.I
}

// allreduce gathers every rank's contribution at rank 0, combines, and
// broadcasts the result.
func (c *comm) allreduce(r *rank, v Val, combine func(a, b Val) Val) Val {
	if c.size == 1 {
		return v
	}
	if r.id == 0 {
		acc := v
		for s := 1; s < c.size; s++ {
			acc = combine(acc, c.recv(r, int64(s), tagGather, 1)[0])
		}
		for d := 1; d < c.size; d++ {
			c.send(r, int64(d), tagResult, []Val{acc})
		}
		return acc
	}
	c.send(r, 0, tagGather, []Val{v})
	return c.recv(r, 0, tagResult, 1)[0]
}

func (c *comm) bcastF64(r *rank, v float64, root int64) float64 {
	return c.bcast(r, FloatVal(v), root).F
}

func (c *comm) bcastI64(r *rank, v int64, root int64) int64 {
	return c.bcast(r, IntVal(v), root).I
}

func (c *comm) bcast(r *rank, v Val, root int64) Val {
	if c.size == 1 {
		return v
	}
	rt := c.checkPeer(r, root)
	if r.id == rt {
		for d := 0; d < c.size; d++ {
			if d != rt {
				c.send(r, int64(d), tagResult, []Val{v})
			}
		}
		return v
	}
	return c.recv(r, root, tagResult, 1)[0]
}
