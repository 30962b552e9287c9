package interp

import (
	"math"

	"ipas/internal/ir"
)

// rank is the per-MPI-process execution state.
type rank struct {
	id   int
	prog *Program
	mem  *Memory
	comm *comm

	// cancel, when non-nil, is the embedding context's Done channel;
	// the instruction loops poll it every cancelPollPeriod instructions
	// and raise TrapCancelled.
	cancel <-chan struct{}

	// instrumented selects the loop new calls run on: the fully
	// instrumented loop while site counting is on, section tracking is
	// armed, this is a snapshot capture run or a fault plan is armed on
	// this rank; the fast loop otherwise (golden runs, verification
	// re-runs, timing runs, the plan-free ranks of a multi-rank trial).
	// It is decided once per run and falls to false at most once, when
	// a transient plan's flip is behind the rank (leaveFull): every
	// execFull frame on the Go stack then continues on execFast.
	instrumented bool

	// limit is the hang budget: both loops raise TrapBudget once
	// executed exceeds it (math.MaxInt64 when unlimited).
	limit    int64
	executed int64

	// Fault plan.
	injectArmed      bool
	injectIndex      int64 // dynamic injectable-instance index to corrupt
	injectBit        int
	injectMask       uint64 // raw multi-bit mask (0 = single-bit)
	injectCorrelated bool   // value-correlated flip
	injectSticky     bool   // persistent per-site fault
	injected         bool
	injectedSite     int
	injectedAt       int64  // executed-instruction count when the flip fired
	injectedMask     uint64 // effective mask of the first firing
	corruptions      int64  // corruption applications (> 1 only when sticky)

	// injectableSeen counts every injectable instance the rank executed;
	// secSeen counts those of a section-targeted plan's section, the
	// plan's Index space.
	injectableSeen int64
	secSeen        int64

	countSites bool
	siteCounts []int64

	// Section tracking (see section.go). sec non-nil selects the full
	// loop and enables boundary hooks; secTarget >= 0 makes the plan's
	// Index count only that section's instances (secSeen); hist is the
	// running observable-event digest; secOrd holds per-section entry
	// counters.
	sec         *progSections
	secCap      *SectionTrace // capture target (golden runs)
	secGold     *SectionTrace // golden trace (trials; arms early exit)
	secTarget   int32
	secOrd      []int64
	hist        uint64
	injSec      int32 // section of the fired injection
	injOrd      int64 // instance ordinal of the fired injection
	earlyMasked bool

	outputF  []float64
	outputI  []int64
	printLog []float64

	callDepth  int
	zeroFrames bool  // mirror of Program.zeroFrames
	scratch    []Val // phi parallel-copy buffer

	// Fork-from-golden snapshots (snapshot.go). capture is non-nil only
	// on a capture run, which records a snapshot at the first branch
	// target where executed reaches snapAt (math.MaxInt64 otherwise, so
	// the one check at branch targets never fires). resume is the
	// snapshot a resumed run is still rebuilding its call chain from,
	// resumeDepth the next frame to restore.
	capture     *capture
	snapAt      int64
	resume      *snapshot
	resumeDepth int

	// arenaCur and arenaOff locate the top of the frame arena, whose
	// blocks (Memory.frames) back call frames and call-argument
	// marshalling: regions are carved off sequentially and released
	// LIFO on return, avoiding per-call heap allocation.
	arenaCur int
	arenaOff int
}

const arenaBlockSize = 16384

// frame carves a slot slice of length n from the arena. zero clears it
// first; callers that overwrite every element before any read (call
// frames of verified-SSA functions, argument marshalling) pass false.
// The blocks come with the pooled address space and keep whatever an
// earlier run left in them, so only zero promises zeroed slots. Blocks
// never move, so outstanding frames stay valid as the arena grows.
func (r *rank) frame(n int, zero bool) []Val {
	m := r.mem
	if m.frames == nil {
		m.frames = [][]Val{make([]Val, max(arenaBlockSize, n))}
	}
	if r.arenaOff+n > len(m.frames[r.arenaCur]) {
		r.arenaCur++
		if r.arenaCur == len(m.frames) {
			m.frames = append(m.frames, make([]Val, max(arenaBlockSize, n)))
		} else if len(m.frames[r.arenaCur]) < n {
			m.frames[r.arenaCur] = make([]Val, n)
		}
		r.arenaOff = 0
	}
	blk := m.frames[r.arenaCur]
	s := blk[r.arenaOff : r.arenaOff+n : r.arenaOff+n]
	if zero {
		for i := range s {
			s[i] = Val{}
		}
	}
	r.arenaOff += n
	return s
}

const maxCallDepth = 4096

// cancelPollPeriod is how many executed instructions pass between
// cancellation polls (power of two; the poll is a non-blocking select).
// Both loops poll only cancel — an infrastructure signal — and
// deliberately never the job-abort channel: a compute-bound rank runs
// on until it blocks in an MPI operation before observing an abort,
// keeping
// executed counts a pure function of the program rather than of how
// quickly a peer's trap propagated (the supervisor makes the same
// determinism argument for blocked operations; see supervisor.go).
const cancelPollPeriod = 4096

// run executes @main on this rank and returns the trap (TrapNone on
// normal termination).
func (r *rank) run() (trap Trap, msg string) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(earlyMaskedExit); ok {
				// Clean stop: the suffix was proven identical to the
				// golden run (r.earlyMasked is already set).
				trap, msg = TrapNone, ""
				return
			}
			tp, ok := p.(trapPanic)
			if !ok {
				panic(p)
			}
			trap, msg = tp.trap, tp.msg
		}
	}()
	r.callFunc(r.prog.main, nil, nil)
	return TrapNone, ""
}

// callFunc invokes a compiled function with the given arguments,
// dispatching to the loop the rank is on. The per-call branch is the
// only specialization cost; inside the loops there are no disarmed
// instrumentation checks. site is the OpCall making the call (nil for
// @main); only a capture run reads it.
func (r *rank) callFunc(pf *progFunc, args []Val, site *pInstr) Val {
	if pf.builtin != builtinNone {
		return r.callBuiltin(pf.builtin, args)
	}
	r.callDepth++
	if r.callDepth > maxCallDepth {
		panic(trapPanic{TrapStackOverflow, "call depth exceeded"})
	}
	sp := r.mem.PushFrame()
	saveCur, saveOff := r.arenaCur, r.arenaOff
	slots := r.frame(pf.numSlots, r.zeroFrames)
	copy(slots, args)
	var ret Val
	switch {
	case !r.instrumented:
		ret = r.execFast(pf, slots, 0)
	case r.capture != nil:
		ret = r.execCapture(pf, slots, sp, site)
	case r.resume != nil:
		pc, fs := r.resumeFrame(slots)
		ret = r.execFull(pf, slots, pc, fs)
	default:
		ret = r.execFull(pf, slots, 0, r.secFrame(pf))
	}
	r.mem.PopFrame(sp)
	r.arenaCur, r.arenaOff = saveCur, saveOff
	r.callDepth--
	return ret
}

// get resolves an encoded operand: a frame slot if x >= 0, else the
// constant-pool entry consts[^x].
func get(slots, consts []Val, x int32) Val {
	if x >= 0 {
		return slots[x]
	}
	return consts[^x]
}

// runCopies performs one edge's phi parallel copies: all sources are
// read before any destination is written.
func (r *rank) runCopies(slots, consts []Val, cps []phiCopy) {
	if len(cps) == 1 {
		slots[cps[0].dst] = get(slots, consts, cps[0].src)
		return
	}
	if cap(r.scratch) < len(cps) {
		r.scratch = make([]Val, len(cps))
	}
	tmp := r.scratch[:len(cps)]
	for i, cp := range cps {
		tmp[i] = get(slots, consts, cp.src)
	}
	for i, cp := range cps {
		slots[cp.dst] = tmp[i]
	}
}

// raiseTrap maps an OpTrap code onto its trap.
func raiseTrap(code int64) {
	if code == TrapCodeDetected {
		panic(trapPanic{TrapDetected, "duplication check failed"})
	}
	panic(trapPanic{TrapAbort, "explicit trap"})
}

// execFast is the uninstrumented hot loop: no site counting, no
// injection hook, no section hooks — just the dynamic-instruction
// counter every result consumer relies on with its hang-budget limit,
// the injectable-population counter (fault.Campaign sizes its sampling
// space from the golden run), and a cancellation poll when a context
// is attached. It runs every call of an uninstrumented rank, starting
// at pc 0, and the rest of a trial once its transient flip is behind
// it, starting where the execFull frame it replaces stopped. The
// hottest opcodes are inlined so each instruction pays a single
// dispatch; the rest go through eval.
//
// Any semantic change here must be mirrored in execFull and eval; the
// differential tests in differential_test.go compare all three against
// a reference IR walker, and TestLoopsAgreeOnWorkloads pins this loop
// against execFull on every workload, armed trials included.
func (r *rank) execFast(pf *progFunc, slots []Val, pc int) Val {
	code := pf.code
	consts := pf.consts
	cancel := r.cancel
	limit := r.limit
	for {
		pi := &code[pc]
		r.executed++
		if cancel != nil && r.executed&(cancelPollPeriod-1) == 0 {
			select {
			case <-cancel:
				panic(trapPanic{TrapCancelled, "execution cancelled"})
			default:
			}
		}
		if r.executed > limit {
			panic(trapPanic{TrapBudget, "instruction budget exceeded"})
		}
		var v Val
		switch pi.op {
		case ir.OpBr:
			if e := pi.edges[0]; e >= 0 {
				r.runCopies(slots, consts, pf.edgeCopies[e])
			}
			pc = int(pi.targets[0])
			continue
		case ir.OpCondBr:
			k := 1
			if get(slots, consts, pi.a0).I != 0 {
				k = 0
			}
			if e := pi.edges[k]; e >= 0 {
				r.runCopies(slots, consts, pf.edgeCopies[e])
			}
			pc = int(pi.targets[k])
			continue
		case ir.OpRet:
			if pi.nops > 0 {
				return get(slots, consts, pi.a0)
			}
			return Val{}
		case ir.OpTrap:
			raiseTrap(get(slots, consts, pi.a0).I)
		case ir.OpStore:
			r.mem.Store(get(slots, consts, pi.a1).I, pi.elemSize, get(slots, consts, pi.a0), pi.storeFloat)
			pc++
			continue
		case ir.OpFAdd:
			v = FloatVal(get(slots, consts, pi.a0).F + get(slots, consts, pi.a1).F)
		case ir.OpFSub:
			v = FloatVal(get(slots, consts, pi.a0).F - get(slots, consts, pi.a1).F)
		case ir.OpFMul:
			v = FloatVal(get(slots, consts, pi.a0).F * get(slots, consts, pi.a1).F)
		case ir.OpFDiv:
			v = FloatVal(get(slots, consts, pi.a0).F / get(slots, consts, pi.a1).F)
		case ir.OpAdd:
			v = IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I+get(slots, consts, pi.a1).I))
		case ir.OpSub:
			v = IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I-get(slots, consts, pi.a1).I))
		case ir.OpMul:
			v = IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I*get(slots, consts, pi.a1).I))
		case ir.OpICmp:
			v = Bool(icmp(pi.pred, get(slots, consts, pi.a0).I, get(slots, consts, pi.a1).I))
		case ir.OpFCmp:
			v = Bool(fcmp(pi.pred, get(slots, consts, pi.a0).F, get(slots, consts, pi.a1).F))
		case ir.OpLoad:
			v = r.mem.Load(get(slots, consts, pi.a0).I, pi.elemSize, pi.isFloat)
		case ir.OpGEP:
			v = IntVal(get(slots, consts, pi.a0).I + get(slots, consts, pi.a1).I*pi.elemSize)
		default:
			v = r.eval(pi, slots, consts)
		}
		if pi.injectable {
			r.injectableSeen++
		}
		if pi.dst >= 0 {
			slots[pi.dst] = v
		}
		pc++
	}
}

// execFull is the fully instrumented loop: per-site dynamic counting,
// the injection hook, the section-boundary hooks and the snapshot
// trigger of a capture run, all over the same flat stream, with the
// same hang-budget limit as execFast. Section state is block-constant,
// so transitions are only checked at branch targets and returns; so is
// the snapshot trigger. Execution starts at pc with section cursor fs:
// 0 and a newly opened cursor for a call, a snapshot frame's pc and
// cursor for a resumed frame. Once the rank leaves the full loop
// (leaveFull) the frame finishes on execFast at its next pc: the
// instruction after the flip, the branch target whose transition
// closed the injected section instance, or the instruction after the
// OpCall whose callee left.
func (r *rank) execFull(pf *progFunc, slots []Val, pc int, fs frameSec) Val {
	code := pf.code
	consts := pf.consts
	for {
		pi := &code[pc]
		r.executed++
		if r.cancel != nil && r.executed&(cancelPollPeriod-1) == 0 {
			select {
			case <-r.cancel:
				panic(trapPanic{TrapCancelled, "execution cancelled"})
			default:
			}
		}
		if r.executed > r.limit {
			panic(trapPanic{TrapBudget, "instruction budget exceeded"})
		}
		if r.countSites {
			r.siteCounts[pi.siteID]++
		}
		switch pi.op {
		case ir.OpBr:
			if e := pi.edges[0]; e >= 0 {
				r.runCopies(slots, consts, pf.edgeCopies[e])
			}
			pc = int(pi.targets[0])
			if fs.tab != nil {
				if ns := fs.tab.pcSec[pc]; ns != fs.cur {
					r.secTransition(&fs, ns, pc, slots)
				}
			}
			if r.executed >= r.snapAt {
				r.snapshot(pc)
			}
		case ir.OpCondBr:
			k := 1
			if get(slots, consts, pi.a0).I != 0 {
				k = 0
			}
			if e := pi.edges[k]; e >= 0 {
				r.runCopies(slots, consts, pf.edgeCopies[e])
			}
			pc = int(pi.targets[k])
			if fs.tab != nil {
				if ns := fs.tab.pcSec[pc]; ns != fs.cur {
					r.secTransition(&fs, ns, pc, slots)
				}
			}
			if r.executed >= r.snapAt {
				r.snapshot(pc)
			}
		case ir.OpRet:
			var ret Val
			if pi.nops > 0 {
				ret = get(slots, consts, pi.a0)
			}
			if fs.tab != nil {
				r.secRet(&fs, ret)
			}
			return ret
		case ir.OpTrap:
			raiseTrap(get(slots, consts, pi.a0).I)
		case ir.OpStore:
			addr := get(slots, consts, pi.a1).I
			v := get(slots, consts, pi.a0)
			if r.sec != nil {
				r.hist = mix(mix(r.hist, uint64(addr)), valBits(v))
			}
			r.mem.Store(addr, pi.elemSize, v, pi.storeFloat)
			pc++
		default:
			v := r.eval(pi, slots, consts)
			if pi.injectable {
				r.injectableSeen++
				if r.secCap != nil && fs.tab != nil {
					r.secCap.Pops[fs.cur]++
				}
				if r.injectArmed && r.planHit(fs) {
					v, r.injectedMask = CorruptValue(v, pi.typ, r.injectBit, r.injectMask, r.injectCorrelated)
					r.injected = true
					r.injectedSite = int(pi.siteID)
					r.injectedAt = r.executed
					r.injectArmed = false
					r.corruptions = 1
					r.injSec, r.injOrd = fs.cur, fs.ord
					if r.sec == nil {
						r.leaveFull()
					}
				} else if r.injectSticky && r.injected && int(pi.siteID) == r.injectedSite {
					// Persistent fault: once fired, every later dynamic
					// execution of the defective static instruction
					// re-applies the corruption (with the plan's raw
					// parameters — the effective mask depends on the
					// value).
					v, _ = CorruptValue(v, pi.typ, r.injectBit, r.injectMask, r.injectCorrelated)
					r.corruptions++
				}
			}
			if pi.dst >= 0 {
				slots[pi.dst] = v
			}
			pc++
		}
		if !r.instrumented {
			return r.execFast(pf, slots, pc)
		}
	}
}

// planHit counts one executed injectable instance in the plan's Index
// space and reports whether it is the planned one. A plain plan's Index
// counts every instance (injectableSeen, already counted); a
// section-targeted plan's counts only those executed while its section
// is current (secSeen).
func (r *rank) planHit(fs frameSec) bool {
	if r.secTarget < 0 {
		return r.injectableSeen-1 == r.injectIndex
	}
	if fs.tab == nil || fs.cur != r.secTarget {
		return false
	}
	r.secSeen++
	return r.secSeen-1 == r.injectIndex
}

// leaveFull moves the rank to the fast loop for the rest of its run.
// It is called at the first point after which no instrumentation can
// change the Result: right after a transient flip, or, when the rank
// tracks sections, right after the early-masked check at the injected
// instance's first exit (secExit). From there only the hang budget can
// still end the run differently, and both loops check it. Site
// counting and a sticky plan, whose hook re-applies the corruption at
// every later execution of the site, keep the rank on the full loop.
func (r *rank) leaveFull() {
	r.instrumented = r.countSites || r.injectSticky
}

// TrapCodeDetected is the trap operand used by protection checks; it
// maps to TrapDetected (the "detected by duplication" outcome).
const TrapCodeDetected = 1

// eval computes the result of a non-control, non-store instruction. It
// is the single shared implementation of value semantics: execFull
// routes every value opcode here, execFast only the cold ones.
func (r *rank) eval(pi *pInstr, slots, consts []Val) Val {
	switch pi.op {
	case ir.OpAdd:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I+get(slots, consts, pi.a1).I))
	case ir.OpSub:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I-get(slots, consts, pi.a1).I))
	case ir.OpMul:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I*get(slots, consts, pi.a1).I))
	case ir.OpSDiv:
		d := get(slots, consts, pi.a1).I
		if d == 0 {
			panic(trapPanic{TrapDivZero, "integer division by zero"})
		}
		if d == -1 {
			return IntVal(truncToType(pi.typ, -get(slots, consts, pi.a0).I))
		}
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I/d))
	case ir.OpSRem:
		d := get(slots, consts, pi.a1).I
		if d == 0 {
			panic(trapPanic{TrapDivZero, "integer remainder by zero"})
		}
		if d == -1 {
			return IntVal(0)
		}
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I%d))
	case ir.OpFAdd:
		return FloatVal(get(slots, consts, pi.a0).F + get(slots, consts, pi.a1).F)
	case ir.OpFSub:
		return FloatVal(get(slots, consts, pi.a0).F - get(slots, consts, pi.a1).F)
	case ir.OpFMul:
		return FloatVal(get(slots, consts, pi.a0).F * get(slots, consts, pi.a1).F)
	case ir.OpFDiv:
		return FloatVal(get(slots, consts, pi.a0).F / get(slots, consts, pi.a1).F)
	case ir.OpAnd:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I&get(slots, consts, pi.a1).I))
	case ir.OpOr:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I|get(slots, consts, pi.a1).I))
	case ir.OpXor:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I^get(slots, consts, pi.a1).I))
	case ir.OpShl:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I<<(uint64(get(slots, consts, pi.a1).I)&63)))
	case ir.OpLShr:
		w := uint64(pi.typ.Bits())
		x := uint64(get(slots, consts, pi.a0).I) & widthMask(w)
		return IntVal(truncToType(pi.typ, int64(x>>(uint64(get(slots, consts, pi.a1).I)&(w-1)))))
	case ir.OpAShr:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I>>(uint64(get(slots, consts, pi.a1).I)&63)))
	case ir.OpICmp:
		return Bool(icmp(pi.pred, get(slots, consts, pi.a0).I, get(slots, consts, pi.a1).I))
	case ir.OpFCmp:
		return Bool(fcmp(pi.pred, get(slots, consts, pi.a0).F, get(slots, consts, pi.a1).F))
	case ir.OpLoad:
		return r.mem.Load(get(slots, consts, pi.a0).I, pi.elemSize, pi.isFloat)
	case ir.OpAlloca:
		return IntVal(r.mem.Alloca(pi.allocBytes))
	case ir.OpGEP:
		return IntVal(get(slots, consts, pi.a0).I + get(slots, consts, pi.a1).I*pi.elemSize)
	case ir.OpAtomicRMW:
		addr := get(slots, consts, pi.a0).I
		old := r.mem.Load(addr, pi.elemSize, false)
		nv := IntVal(old.I + get(slots, consts, pi.a1).I)
		if r.sec != nil {
			r.hist = mix(mix(r.hist, uint64(addr)), uint64(nv.I))
		}
		r.mem.Store(addr, pi.elemSize, nv, false)
		return old
	case ir.OpTrunc, ir.OpSExt:
		return IntVal(truncToType(pi.typ, get(slots, consts, pi.a0).I))
	case ir.OpZExt:
		return IntVal(get(slots, consts, pi.a0).I & int64(pi.srcMask))
	case ir.OpSIToFP:
		return FloatVal(float64(get(slots, consts, pi.a0).I))
	case ir.OpFPToSI:
		return IntVal(truncToType(pi.typ, fpToInt(get(slots, consts, pi.a0).F)))
	case ir.OpPtrToInt, ir.OpIntToPtr:
		return get(slots, consts, pi.a0)
	case ir.OpBitcast:
		v := get(slots, consts, pi.a0)
		if !pi.isFloat {
			return IntVal(int64(math.Float64bits(v.F)))
		}
		return FloatVal(math.Float64frombits(uint64(v.I)))
	case ir.OpSelect:
		if get(slots, consts, pi.a0).I != 0 {
			return get(slots, consts, pi.a1)
		}
		return get(slots, consts, pi.ops[2])
	case ir.OpCall:
		// Marshal arguments through the frame arena (released right
		// after the call returns) instead of allocating per call.
		saveCur, saveOff := r.arenaCur, r.arenaOff
		args := r.frame(len(pi.ops), false)
		for i, o := range pi.ops {
			args[i] = get(slots, consts, o)
		}
		v := r.callFunc(pi.callee, args, pi)
		r.arenaCur, r.arenaOff = saveCur, saveOff
		return v
	}
	panic(trapPanic{TrapAbort, "unknown opcode " + pi.op.String()})
}

func widthMask(w uint64) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << w) - 1
}

// fpToInt converts a float to int64 deterministically: NaN becomes 0
// and out-of-range values saturate.
func fpToInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

func icmp(p ir.Pred, a, b int64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}

func fcmp(p ir.Pred, a, b float64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}
