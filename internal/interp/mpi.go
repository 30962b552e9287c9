package interp

import (
	"fmt"
	"sync"
	"time"
)

// comm is the simulated MPI communicator and the one owner of MPI
// state. Point-to-point messages queue in an eager mailbox per directed
// (src, dst) pair with in-order tag matching; collectives are built on
// top of point-to-point with reserved system tags, mirroring a
// tree-less gather+broadcast implementation. If any rank traps, the
// job aborts (the paper's §4.4.1 relies on exactly this MPI default).
//
// One mutex guards the mailboxes together with the rank supervisor's
// state (supervisor.go), so deadlock detection reads the mailboxes
// themselves. A blocked operation parks in one loop that resolves its
// wake conditions in a FIXED priority order — message delivery,
// structural deadlock, job abort, cancellation, watchdog — never by
// Go's randomized select. Delivery outranking abort means a live rank
// always drains whatever progress is available before it observes the
// teardown, which keeps per-rank executed counts and outputs
// deterministic; deadlock is declared structurally, never by a timer.
type comm struct {
	size int
	done chan struct{} // closed on job abort
	// abortOnce guards the close of done: ranks trap concurrently, and
	// each trapping rank aborts the job.
	abortOnce sync.Once
	// cancel, when non-nil, is the embedding context's Done channel;
	// blocked MPI operations wake on it with TrapCancelled.
	cancel <-chan struct{}
	// wake[r] (capacity 1) is rung when rank r's parked operation may
	// have become resolvable: its peer changed r's mailbox, or deadlock
	// was declared.
	wake []chan struct{}

	// mu guards the mailboxes and the rank supervisor's state below.
	mu sync.Mutex
	// boxes[src*size+dst] is the FIFO mailbox from src to dst, holding
	// at most mailboxCap messages; nil until the first send.
	boxes   [][]message
	phase   []rankPhase
	ops     []pendingOp // a blocked rank's operation
	running int         // ranks in phaseRunning
	trapped bool        // a rank trapped: the abort path owns the outcome
	report  *DeadlockReport
}

type message struct {
	tag int64
	// data must be owned by the message: payloads sit in mailboxes
	// across sender returns, so senders pass freshly allocated slices,
	// never frame-arena memory (which is reused as soon as the sending
	// call unwinds).
	data []Val
}

const (
	// System tags used by collectives (user tags must be >= 0).
	tagGather int64 = -1
	tagResult int64 = -2
)

// mailboxCap is the eager buffer of one mailbox, in messages: a send
// to a full mailbox blocks until the receiver drains one.
const mailboxCap = 4096

// watchdog bounds the wall-clock blocking of one MPI operation as
// defense in depth against supervisor bugs. Its expiry raises
// TrapWatchdog — an infrastructure error, never a modeled outcome:
// genuine deadlocks are detected structurally and instantly. Only tests
// change it.
var watchdog = 60 * time.Second

func newComm(size int, cancel <-chan struct{}) *comm {
	c := &comm{
		size:    size,
		done:    make(chan struct{}),
		cancel:  cancel,
		wake:    make([]chan struct{}, size),
		boxes:   make([][]message, size*size),
		phase:   make([]rankPhase, size),
		ops:     make([]pendingOp, size),
		running: size,
	}
	for r := range c.wake {
		c.wake[r] = make(chan struct{}, 1)
	}
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

// ring wakes rank r's parked operation; a wake already pending covers
// this one.
func (c *comm) ring(r int) {
	select {
	case c.wake[r] <- struct{}{}:
	default:
	}
}

// send delivers data to dst with an eager (buffered) protocol; a full
// mailbox parks the sender until the receiver drains it.
func (c *comm) send(r *rank, dst, tag int64, data []Val) {
	d := c.checkPeer(r, dst)
	box := &c.boxes[r.id*c.size+d]
	c.mu.Lock()
	if len(*box) == mailboxCap {
		c.park(r, opSend, d, tag)
	}
	*box = append(*box, message{tag: tag, data: data})
	waiting := c.parkedOn(d, opRecv, r.id)
	c.mu.Unlock()
	if waiting {
		c.ring(d)
	}
}

// recv takes the in-order next message from src, parking until one
// arrives; its tag and length must match (a mismatch is a runtime
// error, which becomes a visible symptom).
func (c *comm) recv(r *rank, src, tag int64, n int64) []Val {
	sp := c.checkPeer(r, src)
	box := &c.boxes[sp*c.size+r.id]
	c.mu.Lock()
	if len(*box) == 0 {
		c.park(r, opRecv, sp, tag)
	}
	m := (*box)[0]
	(*box)[0] = message{}
	if len(*box) == 1 {
		*box = (*box)[:0] // drained: the next send reuses the slot
	} else {
		*box = (*box)[1:]
	}
	waiting := c.parkedOn(sp, opSend, r.id)
	c.mu.Unlock()
	if waiting {
		c.ring(sp)
	}
	if m.tag != tag {
		panic(trapPanic{TrapAbort, fmt.Sprintf("MPI tag mismatch: want %d, got %d", tag, m.tag)})
	}
	if int64(len(m.data)) != n {
		panic(trapPanic{TrapAbort, fmt.Sprintf("MPI length mismatch: want %d, got %d", n, len(m.data))})
	}
	return m.data
}

// park blocks r's send or recv, entered with c.mu held after the
// operation found its mailbox full or empty. It records the block with
// the supervisor, then resolves the wake conditions in the fixed
// priority order: it returns, with c.mu held, as soon as the operation
// can progress; on a terminal condition it marks the rank trapped — so
// a rank unwinding on an infrastructure condition can never be
// mistaken for a quiescent blocked rank by a later deadlock evaluation
// — unlocks and panics. Otherwise it waits, unlocked, for any event
// and re-resolves.
func (c *comm) park(r *rank, kind opKind, peer int, tag int64) {
	op := pendingOp{kind: kind, peer: peer, tag: tag, executed: r.executed}
	c.block(r.id, op)
	wd := time.NewTimer(watchdog)
	defer wd.Stop()
	expired := false
	for {
		if c.progressable(r.id) {
			c.resume(r.id)
			return
		}
		if trap, msg := c.terminal(op, expired); trap != TrapNone {
			c.end(r.id, trap)
			c.mu.Unlock()
			panic(trapPanic{trap, msg})
		}
		c.mu.Unlock()
		select {
		case <-c.wake[r.id]:
		case <-c.done:
		case <-c.cancel:
		case <-wd.C:
			expired = true
		}
		c.mu.Lock()
	}
}

// terminal returns the trap, and its message, that ends a parked
// operation unable to progress: structural deadlock, job abort,
// cancellation and watchdog expiry, in that order. TrapNone keeps it
// waiting.
func (c *comm) terminal(op pendingOp, expired bool) (Trap, string) {
	if c.report != nil {
		return TrapDeadlock, "structural deadlock: " + op.blocked()
	}
	select {
	case <-c.done:
		return TrapAbort, "job aborted"
	default:
	}
	select {
	case <-c.cancel:
		return TrapCancelled, "execution cancelled"
	default:
	}
	if expired {
		return TrapWatchdog, fmt.Sprintf("infrastructure watchdog expired after %v: %s", watchdog, op.blocked())
	}
	return TrapNone, ""
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
