package interp

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sort"
)

// This file implements fork-from-golden snapshots. A fault trial's
// prefix — everything it executes before its flip — is by construction
// the golden run, so re-interpreting it from instruction zero is wasted
// work. CaptureSnapshots runs the program once, fault-free, on the
// instrumented loop and records resumable snapshots of the rank at
// evenly spaced branch targets; a trial armed with Config.Resume starts
// from the last snapshot taken before its injection instance.
//
// A snapshot holds everything a single-rank run's future depends on:
// the executed and injectable counters, the heap and stack pointers
// with the bytes of both dirty memory spans, the output and print
// buffers, and every active frame's function, pc, slots and saved stack
// pointer. A section-tracked capture adds the section state: the
// boundary digest, the per-section entry ordinals and injectable
// counts, and every frame's section cursor. Resume rebuilds the Go call
// chain frame by frame (see resumeFrame), so every Result field equals
// that of the run from zero.

const (
	// maxSnapshots bounds the snapshots one capture run records; they
	// are spaced evenly over the golden run's executed count.
	maxSnapshots = 32
	// maxSnapshotBytes caps the bytes one capture retains. A capture
	// that would exceed it keeps every other snapshot and doubles the
	// spacing, so the survivors stay evenly spaced.
	maxSnapshotBytes = 64 << 20
)

// Snapshots is the set of golden-run snapshots of one program under one
// heap size. It is immutable once captured and safe
// for concurrent use by any number of resumed runs.
type Snapshots struct {
	prog      *Program
	heapBytes int64
	// sectioned reports that the capture tracked sections; snapshots
	// serve only runs that track them exactly when it did.
	sectioned bool
	snaps     []snapshot // ascending executed (and injectable) counts
}

// Len reports how many snapshots were captured.
func (s *Snapshots) Len() int {
	if s == nil {
		return 0
	}
	return len(s.snaps)
}

// snapshot is the state of a single-rank run at one branch target with
// no MPI message in flight.
type snapshot struct {
	executed   int64
	injectable int64
	heapPtr    int64
	stackPtr   int64
	heap       []byte // data[nullGuard:heapDirtyHi]
	stack      []byte // data[stackDirtyLo:size]
	outputF    []float64
	outputI    []int64
	printLog   []float64
	// Section state of a section-tracked capture (zero otherwise): the
	// boundary digest, and per section the entry ordinals and the
	// injectable instances counted so far.
	hist   uint64
	secOrd []int64
	pops   []int64
	// frames lists the active frames from @main outwards; the last one
	// stands at a branch target, every other at its pending OpCall.
	frames []snapFrame
}

type snapFrame struct {
	fn    *progFunc
	pc    int
	sp    int64 // stack pointer on entry, restored on return
	slots []Val
	sec   frameSec // section cursor (zero when the capture tracks none)
}

func (s *snapshot) bytes() int64 {
	n := int64(len(s.heap) + len(s.stack) + 8*(1+len(s.outputF)+len(s.outputI)+len(s.printLog)+len(s.secOrd)+len(s.pops)))
	for _, f := range s.frames {
		n += 16 * int64(len(f.slots)+1) // the slots, and the section cursor's (cur, ord)
	}
	return n
}

// seen returns how many instances of a plan's Index space the
// snapshot's prefix executed: the whole program's injectable instances
// for sec < 0, section sec's for a section-tracked capture.
func (s *snapshot) seen(sec int32) int64 {
	if sec < 0 {
		return s.injectable
	}
	return s.pops[sec]
}

// capture is the capture run's bookkeeping, held by rank 0 only while
// capturing.
type capture struct {
	every  int64       // snapshot spacing in executed instructions
	frames []liveFrame // the active call chain
	snaps  []snapshot
	bytes  int64
}

// liveFrame is one active frame of the capture run. site is the OpCall
// in the caller that entered it (nil for @main): it locates the
// caller's pending pc. sec is the frame's section cursor, kept current
// by secTransition.
type liveFrame struct {
	fn    *progFunc
	slots []Val
	sp    int64
	site  *pInstr
	sec   frameSec
}

// resumable reports whether a configuration runs the single-rank,
// site-count-free execution snapshots describe.
func resumable(cfg Config) bool {
	return cfg.Ranks == 1 && !cfg.CountSites
}

// CaptureSnapshots runs p fault-free on the instrumented loop under cfg
// and records up to maxSnapshots snapshots spaced evenly over goldenDyn
// executed instructions (the golden run's count), thinned to stay under
// maxSnapshotBytes. When cfg tracks sections the capture is a sectioned
// golden run, recording the boundary trace, and its snapshots serve
// section-targeted trials. It returns nil when no snapshot can be
// taken: at once, without running, when cfg has more than one rank or
// site counting; after the run when it traps, is cancelled or records
// none.
func CaptureSnapshots(ctx context.Context, p *Program, cfg Config, goldenDyn int64) *Snapshots {
	s, _ := captureRun(ctx, p, cfg, goldenDyn)
	return s
}

// captureRun is CaptureSnapshots returning the capture run's Result as
// well (nil when nothing ran).
func captureRun(ctx context.Context, p *Program, cfg Config, goldenDyn int64) (*Snapshots, *Result) {
	cfg = cfg.withDefaults()
	if !resumable(cfg) || goldenDyn <= 0 {
		return nil, nil
	}
	c := &capture{every: max(1, goldenDyn/(maxSnapshots+1))}
	// Without a fault plan a sectioned capture records the boundary
	// trace, whose running per-section counts (Pops) snapshots keep.
	cfg.Fault = nil
	cfg.capture = c
	res := RunContext(ctx, p, cfg)
	if res.Trap != TrapNone || len(c.snaps) == 0 {
		return nil, res
	}
	return &Snapshots{prog: p, heapBytes: cfg.HeapBytes, sectioned: cfg.sectioned(), snaps: c.snaps}, res
}

// execCapture runs one frame of the capture run, keeping the call chain
// the snapshots record.
func (r *rank) execCapture(pf *progFunc, slots []Val, sp int64, site *pInstr) Val {
	c := r.capture
	fs := r.secFrame(pf)
	c.frames = append(c.frames, liveFrame{fn: pf, slots: slots, sp: sp, site: site, sec: fs})
	ret := r.execFull(pf, slots, 0, fs)
	c.frames = c.frames[:len(c.frames)-1]
	return ret
}

// snapshot records the capture run's state at the branch target pc of
// the innermost frame. execFull calls it once r.executed reaches
// r.snapAt.
func (r *rank) snapshot(pc int) {
	if len(r.comm.boxes[0]) > 0 {
		return // a message to self is queued: try the next branch target
	}
	c, m := r.capture, r.mem
	s := snapshot{
		executed:   r.executed,
		injectable: r.injectableSeen,
		heapPtr:    m.heapPtr,
		stackPtr:   m.stackPtr,
		heap:       bytes.Clone(m.data[nullGuard:m.heapDirtyHi]),
		stack:      bytes.Clone(m.data[m.stackDirtyLo:m.size]),
		outputF:    slices.Clone(r.outputF),
		outputI:    slices.Clone(r.outputI),
		printLog:   slices.Clone(r.printLog),
		frames:     make([]snapFrame, len(c.frames)),
	}
	if r.sec != nil {
		s.hist = r.hist
		s.secOrd = slices.Clone(r.secOrd)
		s.pops = slices.Clone(r.secCap.Pops)
	}
	for i, f := range c.frames {
		at := pc
		if i+1 < len(c.frames) {
			at = callPC(f.fn, c.frames[i+1].site)
		}
		s.frames[i] = snapFrame{fn: f.fn, pc: at, sp: f.sp, slots: slices.Clone(f.slots), sec: f.sec}
	}
	c.snaps = append(c.snaps, s)
	c.bytes += s.bytes()
	for c.bytes > maxSnapshotBytes {
		// Keep the snapshots on the doubled grid (every second one).
		kept := c.snaps[:0]
		c.bytes = 0
		for i := 1; i < len(c.snaps); i += 2 {
			kept = append(kept, c.snaps[i])
			c.bytes += c.snaps[i].bytes()
		}
		clear(c.snaps[len(kept):])
		c.snaps = kept
		c.every *= 2
	}
	r.snapAt = (r.executed/c.every + 1) * c.every
	if len(c.snaps) == maxSnapshots {
		r.snapAt = math.MaxInt64
	}
}

// callPC returns the pc of the call instruction site within fn.
func callPC(fn *progFunc, site *pInstr) int {
	for pc := range fn.code {
		if &fn.code[pc] == site {
			return pc
		}
	}
	panic("interp: snapshot call site outside its caller")
}

// from returns the snapshot an armed run under cfg should start from:
// the last one taken before the plan's injection instance — counted in
// the plan's section for a section-tracked run — and within the
// instruction budget. It returns nil when the snapshots cannot serve
// cfg (another program or heap size, section tracking on only one
// side, more ranks, site counting, a section outside the partition) or
// none precedes the plan.
func (s *Snapshots) from(p *Program, cfg Config) *snapshot {
	if s == nil || s.prog != p || !resumable(cfg) || cfg.Fault == nil || cfg.Fault.Rank != 0 ||
		s.heapBytes != cfg.HeapBytes || s.sectioned != cfg.sectioned() {
		return nil
	}
	sec := int32(-1) // a plain plan's Index counts every injectable instance
	if s.sectioned {
		// A sectioned plan's counts its section's.
		sec = cfg.Fault.Section
		if sec < 0 || int(sec) >= len(p.Sections().All) {
			return nil
		}
	}
	// An instruction budget below a snapshot's count would have stopped
	// the run from zero before reaching it.
	limit := cfg.MaxInstrs
	if limit <= 0 {
		limit = math.MaxInt64
	}
	i := sort.Search(len(s.snaps), func(i int) bool {
		return s.snaps[i].seen(sec) > cfg.Fault.Index || s.snaps[i].executed > limit
	})
	if i == 0 {
		return nil
	}
	return &s.snaps[i-1]
}

// restore loads snapshot s into a freshly created rank (its memory just
// reset, its section tracking and plan armed) and arms resumeFrame to
// rebuild the call chain when run enters @main. The hang budget is a
// limit on the absolute executed count, so it needs no adjustment.
func (r *rank) restore(s *snapshot) {
	m := r.mem
	copy(m.data[nullGuard:], s.heap)
	m.heapDirtyHi = nullGuard + int64(len(s.heap))
	m.stackDirtyLo = m.size - int64(len(s.stack))
	copy(m.data[m.stackDirtyLo:], s.stack)
	m.heapPtr = s.heapPtr
	m.stackPtr = s.frames[0].sp
	r.executed = s.executed
	r.injectableSeen = s.injectable
	if r.sec != nil {
		r.hist = s.hist
		copy(r.secOrd, s.secOrd)
	}
	if r.secTarget >= 0 {
		r.secSeen = s.seen(r.secTarget)
	}
	r.outputF = slices.Clone(s.outputF)
	r.outputI = slices.Clone(s.outputI)
	r.printLog = slices.Clone(s.printLog)
	r.resume = s
}

// resumeFrame restores the next frame of the snapshot being resumed
// into the frame callFunc just entered and returns the pc and section
// cursor execFull starts it with: the frame's own cursor, not a new
// instance (in recursion an outer frame's open ordinal is older than
// the latest one). The innermost frame continues at its branch target,
// already counted. Every caller re-enters at its pending OpCall: the
// loop counts that instruction again, so it is uncounted here, and the
// call then descends into the next frame, whose eventual return value
// takes the loop's own injectable-accounting and injection path — a
// call result is itself an injectable instance.
func (r *rank) resumeFrame(slots []Val) (int, frameSec) {
	s := r.resume
	f := &s.frames[r.resumeDepth]
	copy(slots, f.slots)
	r.resumeDepth++
	if r.resumeDepth == len(s.frames) {
		r.mem.stackPtr = s.stackPtr
		r.resume = nil
		return f.pc, f.sec
	}
	r.mem.stackPtr = s.frames[r.resumeDepth].sp
	r.executed--
	return f.pc, f.sec
}
