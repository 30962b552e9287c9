package interp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ipas/internal/ir"
	"ipas/internal/lang"
)

// This file is the semantic oracle for the flat bytecode engine: a
// reference evaluator that walks the IR directly, block by block with
// phi resolution on block entry — the shape of the engine the bytecode
// lowering replaced. Every behavior the fault-injection layers depend
// on (trap taxonomy, dynamic instruction counts, injectable-instance
// ordering, site counts, single-bit injection, output buffers) is
// compared bit-for-bit between the reference walker and both
// specialized loops over randprog-generated programs, and every armed
// run once more resumed from the program's golden-run snapshots.

// refInjectable mirrors fault.Injectable (fault imports interp, so the
// real predicate cannot be imported here): result-producing,
// non-terminator instructions except loads and phis, excluding
// protection checks.
func refInjectable(in *ir.Instr) bool {
	if !in.HasResult() || in.Op().IsTerminator() {
		return false
	}
	switch in.Op() {
	case ir.OpLoad, ir.OpPhi:
		return false
	}
	return in.Prot != ir.ProtCheck
}

// refMachine executes a single-rank module by walking the IR.
type refMachine struct {
	mem      *Memory
	budget   int64
	executed int64

	injectable       func(*ir.Instr) bool
	injectArmed      bool
	injectIndex      int64
	injectBit        int
	injectMask       uint64
	injectCorrelated bool
	injectSticky     bool
	injected         bool
	injectedSite     int
	injectedAt       int64
	injectedMask     uint64
	corruptions      int64

	injectableSeen int64
	countSites     bool
	siteCounts     []int64

	outputF  []float64
	outputI  []int64
	printLog []float64

	callDepth int
}

// refRun executes @main of m with the old engine's semantics and
// reports the outcome in the same Result shape as Run.
func refRun(m *ir.Module, cfg Config, injectable func(*ir.Instr) bool) *Result {
	if injectable == nil {
		injectable = func(*ir.Instr) bool { return false }
	}
	cfg = cfg.withDefaults()
	rm := &refMachine{
		mem:          NewMemory(cfg.HeapBytes),
		budget:       -1,
		injectable:   injectable,
		injectedSite: -1,
	}
	if cfg.MaxInstrs > 0 {
		rm.budget = cfg.MaxInstrs
	}
	if cfg.Fault != nil && cfg.Fault.Rank == 0 {
		rm.injectArmed = true
		rm.injectIndex = cfg.Fault.Index
		rm.injectBit = cfg.Fault.Bit
		rm.injectMask = cfg.Fault.Mask
		rm.injectCorrelated = cfg.Fault.Correlated
		rm.injectSticky = cfg.Fault.Sticky
	}
	if cfg.CountSites {
		rm.countSites = true
		rm.siteCounts = make([]int64, m.NumSites())
	}

	res := &Result{InjectedSite: -1, TrapRank: -1}
	func() {
		defer func() {
			if p := recover(); p != nil {
				tp, ok := p.(trapPanic)
				if !ok {
					panic(p)
				}
				res.Trap, res.TrapRank, res.TrapMsg = tp.trap, 0, tp.msg
			}
		}()
		rm.callFn(m.FuncByName("main"), nil)
	}()

	res.DynInstrs = []int64{rm.executed}
	res.TotalDyn = rm.executed
	res.MaxRankDyn = rm.executed
	res.Injectable = []int64{rm.injectableSeen}
	res.Injected = rm.injected
	if rm.injected {
		res.InjectedSite = rm.injectedSite
		res.InjectedAt = rm.injectedAt
		res.InjectedRankDyn = rm.executed
		res.InjectedMask = rm.injectedMask
		res.Corruptions = rm.corruptions
	}
	res.OutputF, res.OutputI, res.PrintLog = rm.outputF, rm.outputI, rm.printLog
	res.SiteCounts = rm.siteCounts
	return res
}

func (rm *refMachine) val(env map[ir.Value]Val, v ir.Value) Val {
	if c, ok := v.(*ir.Const); ok {
		if c.Type().IsFloat() {
			return FloatVal(c.Float)
		}
		return IntVal(c.Int)
	}
	return env[v]
}

func (rm *refMachine) callFn(f *ir.Func, args []Val) Val {
	if f.Builtin {
		return rm.builtin(f.Name(), args)
	}
	rm.callDepth++
	if rm.callDepth > maxCallDepth {
		panic(trapPanic{TrapStackOverflow, "call depth exceeded"})
	}
	sp := rm.mem.PushFrame()
	env := map[ir.Value]Val{}
	for i, prm := range f.Params() {
		if i < len(args) {
			env[prm] = args[i]
		}
	}

	blocks := f.Blocks()
	b := blocks[0]
	var prev *ir.Block
	for {
		// Phi resolution on block entry: parallel reads, then writes.
		phis := b.Phis()
		if prev != nil && len(phis) > 0 {
			vals := make([]Val, len(phis))
			for i, phi := range phis {
				for j, inc := range phi.Incoming {
					if inc == prev {
						vals[i] = rm.val(env, phi.Operand(j))
						break
					}
				}
			}
			for i, phi := range phis {
				env[phi] = vals[i]
			}
		}
		prev = b

		for _, in := range b.Instrs() {
			if in.Op() == ir.OpPhi {
				continue
			}
			rm.executed++
			if rm.budget >= 0 {
				rm.budget--
				if rm.budget < 0 {
					panic(trapPanic{TrapBudget, "instruction budget exceeded"})
				}
			}
			if rm.countSites {
				rm.siteCounts[in.SiteID]++
			}
			switch in.Op() {
			case ir.OpBr:
				b = in.Targets[0]
			case ir.OpCondBr:
				if rm.val(env, in.Operand(0)).I != 0 {
					b = in.Targets[0]
				} else {
					b = in.Targets[1]
				}
			case ir.OpRet:
				var ret Val
				if in.NumOperands() > 0 {
					ret = rm.val(env, in.Operand(0))
				}
				rm.mem.PopFrame(sp)
				rm.callDepth--
				return ret
			case ir.OpTrap:
				raiseTrap(rm.val(env, in.Operand(0)).I)
			case ir.OpStore:
				v := rm.val(env, in.Operand(0))
				w := in.Operand(0).Type().Size()
				rm.mem.Store(rm.val(env, in.Operand(1)).I, w, v, in.Operand(0).Type().IsFloat())
			default:
				v := rm.evalInstr(env, in)
				if in.HasResult() && rm.injectable(in) {
					rm.injectableSeen++
					fired := false
					if rm.injectArmed && rm.injectableSeen-1 == rm.injectIndex {
						v, rm.injectedMask = CorruptValue(v, in.Type(), rm.injectBit, rm.injectMask, rm.injectCorrelated)
						rm.injected = true
						rm.injectedSite = in.SiteID
						rm.injectedAt = rm.executed
						rm.injectArmed = false
						rm.corruptions = 1
						fired = true
					}
					if !fired && rm.injectSticky && rm.injected && in.SiteID == rm.injectedSite {
						v, _ = CorruptValue(v, in.Type(), rm.injectBit, rm.injectMask, rm.injectCorrelated)
						rm.corruptions++
					}
				}
				if in.HasResult() {
					env[in] = v
				}
			}
			if in.Op().IsTerminator() {
				break
			}
		}
	}
}

func (rm *refMachine) evalInstr(env map[ir.Value]Val, in *ir.Instr) Val {
	op0 := func() Val { return rm.val(env, in.Operand(0)) }
	op1 := func() Val { return rm.val(env, in.Operand(1)) }
	t := in.Type()
	switch in.Op() {
	case ir.OpAdd:
		return IntVal(truncToType(t, op0().I+op1().I))
	case ir.OpSub:
		return IntVal(truncToType(t, op0().I-op1().I))
	case ir.OpMul:
		return IntVal(truncToType(t, op0().I*op1().I))
	case ir.OpSDiv:
		d := op1().I
		if d == 0 {
			panic(trapPanic{TrapDivZero, "integer division by zero"})
		}
		if d == -1 {
			return IntVal(truncToType(t, -op0().I))
		}
		return IntVal(truncToType(t, op0().I/d))
	case ir.OpSRem:
		d := op1().I
		if d == 0 {
			panic(trapPanic{TrapDivZero, "integer remainder by zero"})
		}
		if d == -1 {
			return IntVal(0)
		}
		return IntVal(truncToType(t, op0().I%d))
	case ir.OpFAdd:
		return FloatVal(op0().F + op1().F)
	case ir.OpFSub:
		return FloatVal(op0().F - op1().F)
	case ir.OpFMul:
		return FloatVal(op0().F * op1().F)
	case ir.OpFDiv:
		return FloatVal(op0().F / op1().F)
	case ir.OpAnd:
		return IntVal(truncToType(t, op0().I&op1().I))
	case ir.OpOr:
		return IntVal(truncToType(t, op0().I|op1().I))
	case ir.OpXor:
		return IntVal(truncToType(t, op0().I^op1().I))
	case ir.OpShl:
		return IntVal(truncToType(t, op0().I<<(uint64(op1().I)&63)))
	case ir.OpLShr:
		w := uint64(t.Bits())
		x := uint64(op0().I) & widthMask(w)
		return IntVal(truncToType(t, int64(x>>(uint64(op1().I)&(w-1)))))
	case ir.OpAShr:
		return IntVal(truncToType(t, op0().I>>(uint64(op1().I)&63)))
	case ir.OpICmp:
		return Bool(icmp(in.Pred, op0().I, op1().I))
	case ir.OpFCmp:
		return Bool(fcmp(in.Pred, op0().F, op1().F))
	case ir.OpLoad:
		return rm.mem.Load(op0().I, t.Size(), t.IsFloat())
	case ir.OpAlloca:
		return IntVal(rm.mem.Alloca(align8(t.Elem().Size() * in.AllocElems)))
	case ir.OpGEP:
		return IntVal(op0().I + op1().I*t.Elem().Size())
	case ir.OpAtomicRMW:
		addr := op0().I
		old := rm.mem.Load(addr, t.Size(), false)
		rm.mem.Store(addr, t.Size(), IntVal(old.I+op1().I), false)
		return old
	case ir.OpTrunc, ir.OpSExt:
		return IntVal(truncToType(t, op0().I))
	case ir.OpZExt:
		return IntVal(op0().I & int64(widthMask(uint64(in.Operand(0).Type().Bits()))))
	case ir.OpSIToFP:
		return FloatVal(float64(op0().I))
	case ir.OpFPToSI:
		return IntVal(truncToType(t, fpToInt(op0().F)))
	case ir.OpPtrToInt, ir.OpIntToPtr:
		return op0()
	case ir.OpBitcast:
		v := op0()
		if t == ir.I64 {
			return IntVal(int64(math.Float64bits(v.F)))
		}
		return FloatVal(math.Float64frombits(uint64(v.I)))
	case ir.OpSelect:
		if op0().I != 0 {
			return op1()
		}
		return rm.val(env, in.Operand(2))
	case ir.OpCall:
		args := make([]Val, in.NumOperands())
		for i := range args {
			args[i] = rm.val(env, in.Operand(i))
		}
		return rm.callFn(in.Callee, args)
	}
	panic(trapPanic{TrapAbort, "unknown opcode " + in.Op().String()})
}

func (rm *refMachine) builtin(name string, args []Val) Val {
	switch name {
	case "sqrt":
		return FloatVal(math.Sqrt(args[0].F))
	case "sin":
		return FloatVal(math.Sin(args[0].F))
	case "cos":
		return FloatVal(math.Cos(args[0].F))
	case "exp":
		return FloatVal(math.Exp(args[0].F))
	case "log":
		return FloatVal(math.Log(args[0].F))
	case "pow":
		return FloatVal(math.Pow(args[0].F, args[1].F))
	case "fabs":
		return FloatVal(math.Abs(args[0].F))
	case "floor":
		return FloatVal(math.Floor(args[0].F))
	case "fmin":
		return FloatVal(math.Min(args[0].F, args[1].F))
	case "fmax":
		return FloatVal(math.Max(args[0].F, args[1].F))
	case "malloc_f64", "malloc_i64":
		return IntVal(rm.mem.Malloc(args[0].I * 8))
	case "out_f64":
		idx := args[0].I
		if idx < 0 || idx > 1<<24 {
			panic(trapPanic{TrapAbort, "bad output index"})
		}
		for int64(len(rm.outputF)) <= idx {
			rm.outputF = append(rm.outputF, 0)
		}
		rm.outputF[idx] = args[1].F
		return Val{}
	case "out_i64":
		idx := args[0].I
		if idx < 0 || idx > 1<<24 {
			panic(trapPanic{TrapAbort, "bad output index"})
		}
		for int64(len(rm.outputI)) <= idx {
			rm.outputI = append(rm.outputI, 0)
		}
		rm.outputI[idx] = args[1].I
		return Val{}
	case "assert_true":
		if args[0].I == 0 {
			panic(trapPanic{TrapAbort, "assertion failed"})
		}
		return Val{}
	case "print_f64":
		rm.printLog = append(rm.printLog, args[0].F)
		return Val{}
	case "print_i64":
		rm.printLog = append(rm.printLog, float64(args[0].I))
		return Val{}
	}
	panic(trapPanic{TrapAbort, "reference engine: unsupported builtin @" + name})
}

// --- comparison helpers ----------------------------------------------------

func diffCompare(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Trap != got.Trap {
		t.Fatalf("%s: trap: ref %v, engine %v (%s)", label, want.Trap, got.Trap, got.TrapMsg)
	}
	if want.TotalDyn != got.TotalDyn {
		t.Fatalf("%s: dynamic count: ref %d, engine %d", label, want.TotalDyn, got.TotalDyn)
	}
	if want.Injectable[0] != got.Injectable[0] {
		t.Fatalf("%s: injectable population: ref %d, engine %d", label, want.Injectable[0], got.Injectable[0])
	}
	if want.Injected != got.Injected || want.InjectedSite != got.InjectedSite || want.InjectedAt != got.InjectedAt {
		t.Fatalf("%s: injection: ref (%v site %d at %d), engine (%v site %d at %d)", label,
			want.Injected, want.InjectedSite, want.InjectedAt,
			got.Injected, got.InjectedSite, got.InjectedAt)
	}
	if want.InjectedMask != got.InjectedMask || want.Corruptions != got.Corruptions {
		t.Fatalf("%s: corruption: ref (mask %#x, %d applications), engine (mask %#x, %d applications)", label,
			want.InjectedMask, want.Corruptions, got.InjectedMask, got.Corruptions)
	}
	if len(want.OutputF) != len(got.OutputF) || len(want.OutputI) != len(got.OutputI) {
		t.Fatalf("%s: output lengths: ref (%d f, %d i), engine (%d f, %d i)", label,
			len(want.OutputF), len(want.OutputI), len(got.OutputF), len(got.OutputI))
	}
	for i := range want.OutputF {
		if math.Float64bits(want.OutputF[i]) != math.Float64bits(got.OutputF[i]) {
			t.Fatalf("%s: OutputF[%d]: ref %v, engine %v", label, i, want.OutputF[i], got.OutputF[i])
		}
	}
	for i := range want.OutputI {
		if want.OutputI[i] != got.OutputI[i] {
			t.Fatalf("%s: OutputI[%d]: ref %d, engine %d", label, i, want.OutputI[i], got.OutputI[i])
		}
	}
	if len(want.PrintLog) != len(got.PrintLog) {
		t.Fatalf("%s: print log length: ref %d, engine %d", label, len(want.PrintLog), len(got.PrintLog))
	}
	for i := range want.PrintLog {
		if math.Float64bits(want.PrintLog[i]) != math.Float64bits(got.PrintLog[i]) {
			t.Fatalf("%s: PrintLog[%d]: ref %v, engine %v", label, i, want.PrintLog[i], got.PrintLog[i])
		}
	}
	if want.SiteCounts != nil || got.SiteCounts != nil {
		if len(want.SiteCounts) != len(got.SiteCounts) {
			t.Fatalf("%s: site-count lengths: ref %d, engine %d", label, len(want.SiteCounts), len(got.SiteCounts))
		}
		for s := range want.SiteCounts {
			if want.SiteCounts[s] != got.SiteCounts[s] {
				t.Fatalf("%s: SiteCounts[%d]: ref %d, engine %d", label, s, want.SiteCounts[s], got.SiteCounts[s])
			}
		}
	}
}

func diffModule(t *testing.T, seed int64) *ir.Module {
	t.Helper()
	m, err := lang.Compile(lang.RandomProgram(seed))
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	return m
}

const diffBudget = 500_000_000

// fullLoopLeg reruns cfg with site counting, which keeps the run on the
// instrumented loop from start to end, and requires every Result field
// but SiteCounts to equal those of zero, the run from instruction zero
// as a campaign makes it, which leaves the instrumented loop once its
// transient flip is behind it.
func fullLoopLeg(t *testing.T, label string, p *Program, cfg Config, zero *Result) {
	t.Helper()
	cfg.CountSites = true
	full := Run(p, cfg)
	full.SiteCounts = nil
	diffCompare(t, label+"-full-loop", full, zero)
	sameRun(t, label+"-full-loop", full, zero)
}

// resumeLeg is the snapshot leg of the oracle: it resumes cfg's armed
// run from the program's golden snapshots and compares the result with
// the reference walker's and with the run from instruction zero — the
// latter on every Result field, since both come from the same engine.
// ref is nil for section-tracked runs, which the walker does not model.
// It reports whether the run actually started from a snapshot.
func resumeLeg(t *testing.T, label string, p *Program, snaps *Snapshots, cfg Config, ref, zero *Result) bool {
	t.Helper()
	cfg.Resume = snaps
	got := Run(p, cfg)
	if ref != nil {
		diffCompare(t, label+"-resumed-vs-ref", ref, got)
	}
	diffCompare(t, label+"-resumed-vs-zero", zero, got)
	sameRun(t, label+"-resumed-vs-zero", zero, got)
	return snaps.from(p, cfg.withDefaults()) != nil
}

// sameRun compares the Result fields diffCompare leaves out: trap
// attribution, per-rank counts, the injected rank's final count, the
// deadlock report, the early-masked exit and the section trace.
func sameRun(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.EarlyMasked != got.EarlyMasked || !reflect.DeepEqual(want.Sections, got.Sections) {
		t.Fatalf("%s: early-masked %v vs %v, section traces equal %v", label,
			want.EarlyMasked, got.EarlyMasked, reflect.DeepEqual(want.Sections, got.Sections))
	}
	if want.TrapRank != got.TrapRank || want.TrapMsg != got.TrapMsg {
		t.Fatalf("%s: trap attribution: (%d %q) vs (%d %q)", label, want.TrapRank, want.TrapMsg, got.TrapRank, got.TrapMsg)
	}
	if !slices.Equal(want.DynInstrs, got.DynInstrs) || want.MaxRankDyn != got.MaxRankDyn ||
		want.InjectedRankDyn != got.InjectedRankDyn || !slices.Equal(want.Injectable, got.Injectable) {
		t.Fatalf("%s: counts: dyn %v/%d injected-rank %d vs dyn %v/%d injected-rank %d", label,
			want.DynInstrs, want.MaxRankDyn, want.InjectedRankDyn, got.DynInstrs, got.MaxRankDyn, got.InjectedRankDyn)
	}
	if (want.Deadlock == nil) != (got.Deadlock == nil) ||
		(want.Deadlock != nil && want.Deadlock.Summary() != got.Deadlock.Summary()) {
		t.Fatalf("%s: deadlock report: %v vs %v", label, want.Deadlock, got.Deadlock)
	}
}

// captureFor captures a program's golden snapshots, failing the test
// when a capture run of a clean program records none.
func captureFor(t *testing.T, p *Program, golden *Result) *Snapshots {
	t.Helper()
	return captureUnder(t, p, Config{}, golden)
}

// captureSectioned captures a program's section-tracked golden
// snapshots, failing the test when the capture records none.
func captureSectioned(t *testing.T, p *Program, golden *Result) *Snapshots {
	t.Helper()
	return captureUnder(t, p, Config{Sections: &SectionConfig{}}, golden)
}

func captureUnder(t *testing.T, p *Program, cfg Config, golden *Result) *Snapshots {
	t.Helper()
	snaps := CaptureSnapshots(context.Background(), p, cfg, golden.TotalDyn)
	if snaps.Len() == 0 && golden.TotalDyn > 2*maxSnapshots {
		t.Fatalf("capture of a %d-instruction golden run recorded no snapshot", golden.TotalDyn)
	}
	return snaps
}

// TestDifferentialGolden compares golden (fault-free) runs between the
// reference walker and both engine loops: the fast loop (plain config)
// and the full loop (site counting armed, with a budget).
func TestDifferentialGolden(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= seeds; seed++ {
		m := diffModule(t, seed)
		p, err := Compile(m, refInjectable)
		if err != nil {
			t.Fatalf("seed %d: engine compile: %v", seed, err)
		}

		ref := refRun(m, Config{}, refInjectable)
		fast := Run(p, Config{})
		diffCompare(t, "fast", ref, fast)

		refFull := refRun(m, Config{CountSites: true, MaxInstrs: diffBudget}, refInjectable)
		full := Run(p, Config{CountSites: true, MaxInstrs: diffBudget})
		diffCompare(t, "full", refFull, full)

		// The two specialized loops must also agree with each other.
		diffCompare(t, "fast-vs-full", &Result{
			Trap: fast.Trap, TotalDyn: fast.TotalDyn, Injectable: fast.Injectable,
			InjectedSite: -1, OutputF: fast.OutputF, OutputI: fast.OutputI,
			PrintLog: fast.PrintLog, SiteCounts: full.SiteCounts,
		}, full)
	}
}

// TestDifferentialInjection compares armed single-bit injection runs:
// identical Injected/InjectedSite/InjectedAt, traps, dynamic counts and
// outputs between the reference walker and the engine, which leaves the
// instrumented loop for the fast one after the flip. Its tight-budget
// leg reruns every plan whose reference run goes on for more than two
// instructions past the flip with a budget halfway between the two, so
// the reference walker, the engine from zero and the resumed engine
// must all trap TrapBudget at executed count MaxInstrs+1, the engine on
// its fast loop.
func TestDifferentialInjection(t *testing.T) {
	seeds := int64(12)
	trials := 24
	if testing.Short() {
		seeds, trials = 4, 8
	}
	resumed, tight := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		m := diffModule(t, seed)
		p, err := Compile(m, refInjectable)
		if err != nil {
			t.Fatalf("seed %d: engine compile: %v", seed, err)
		}
		golden := Run(p, Config{})
		if golden.Trap != TrapNone {
			t.Fatalf("seed %d: golden trap %v", seed, golden.Trap)
		}
		pop := golden.Injectable[0]
		if pop == 0 {
			continue
		}
		budget := golden.MaxRankDyn*10 + 1_000_000
		snaps := captureFor(t, p, golden)
		rng := rand.New(rand.NewSource(seed * 7919))
		for k := 0; k < trials; k++ {
			plan := &FaultPlan{Rank: 0, Index: rng.Int63n(pop), Bit: rng.Intn(64)}
			cfg := Config{Fault: plan, MaxInstrs: budget}
			ref := refRun(m, cfg, refInjectable)
			got := Run(p, cfg)
			if !ref.Injected {
				t.Fatalf("seed %d trial %d: reference did not inject (index %d, pop %d)",
					seed, k, plan.Index, pop)
			}
			diffCompare(t, "armed", ref, got)
			if resumeLeg(t, "armed", p, snaps, cfg, ref, got) {
				resumed++
			}
			if ref.TotalDyn-ref.InjectedAt <= 2 {
				continue
			}
			cfg.MaxInstrs = (ref.InjectedAt + ref.TotalDyn) / 2
			ref, got = refRun(m, cfg, refInjectable), Run(p, cfg)
			if ref.Trap != TrapBudget || ref.TotalDyn != cfg.MaxInstrs+1 {
				t.Fatalf("seed %d trial %d: budget %d: reference trap %v at %d, want %v at %d",
					seed, k, cfg.MaxInstrs, ref.Trap, ref.TotalDyn, TrapBudget, cfg.MaxInstrs+1)
			}
			diffCompare(t, "tight-budget", ref, got)
			resumeLeg(t, "tight-budget", p, snaps, cfg, ref, got)
			tight++
		}
	}
	if resumed == 0 {
		t.Fatal("no armed run started from a snapshot")
	}
	if tight == 0 {
		t.Fatal("no armed run reached its budget after the flip")
	}
}

// TestDifferentialErrorModels compares armed runs across the error-model
// parameter space — multi-bit masks, value-correlated flips, and sticky
// per-site faults — between the reference walker and the instrumented
// loop. Random draws mimic the fault package's built-in models without
// importing it (fault imports interp).
func TestDifferentialErrorModels(t *testing.T) {
	seeds := int64(8)
	trials := 12
	if testing.Short() {
		seeds, trials = 3, 6
	}
	draws := []func(rng *rand.Rand, plan *FaultPlan){
		func(rng *rand.Rand, plan *FaultPlan) { // burst-3
			start := rng.Intn(64)
			plan.Bit = start
			for i := 0; i < 3; i++ {
				plan.Mask |= 1 << uint((start+i)%64)
			}
		},
		func(rng *rand.Rand, plan *FaultPlan) { // random-k
			for i := 0; i < 3; i++ {
				plan.Mask |= 1 << uint(rng.Intn(64))
			}
			plan.Bit = rng.Intn(64)
		},
		func(rng *rand.Rand, plan *FaultPlan) { // correlated
			plan.Bit = rng.Intn(64)
			plan.Correlated = true
		},
		func(rng *rand.Rand, plan *FaultPlan) { // sticky
			plan.Bit = rng.Intn(64)
			plan.Sticky = true
		},
	}
	resumed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		m := diffModule(t, seed)
		p, err := Compile(m, refInjectable)
		if err != nil {
			t.Fatalf("seed %d: engine compile: %v", seed, err)
		}
		golden := Run(p, Config{})
		if golden.Trap != TrapNone {
			t.Fatalf("seed %d: golden trap %v", seed, golden.Trap)
		}
		pop := golden.Injectable[0]
		if pop == 0 {
			continue
		}
		budget := golden.MaxRankDyn*10 + 1_000_000
		snaps := captureFor(t, p, golden)
		rng := rand.New(rand.NewSource(seed * 6121))
		for k := 0; k < trials; k++ {
			plan := &FaultPlan{Rank: 0, Index: rng.Int63n(pop)}
			draws[k%len(draws)](rng, plan)
			cfg := Config{Fault: plan, MaxInstrs: budget}
			ref := refRun(m, cfg, refInjectable)
			got := Run(p, cfg)
			if !ref.Injected {
				t.Fatalf("seed %d trial %d: reference did not inject (plan %+v, pop %d)",
					seed, k, plan, pop)
			}
			diffCompare(t, "model-armed", ref, got)
			if resumeLeg(t, "model-armed", p, snaps, cfg, ref, got) {
				resumed++
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no armed run started from a snapshot")
	}
}

// FuzzDifferential fuzzes (program seed, injection index, bit, mask,
// flags) tuples — flags bit 0 arms value-correlated flips, bit 1 arms
// sticky re-corruption — so the fuzzer explores the full error-model
// plan space, each armed run also resumed from golden-run snapshots and
// rerun with site counting, which keeps it on the instrumented loop
// that a transient run leaves after its flip (fullLoopLeg). Flags bit 2
// adds a sectioned leg: the index picks a section with a non-empty
// population and an instance within it, and that section-targeted run,
// with the early-masked exit armed, is resumed from section-tracked
// snapshots and compared with its run from zero and its full-loop run.
// The corpus entries run as part of normal `go test`; seed-13..16 of
// program -400 and -399 resume two frames deep (see
// TestResumeCallChain), seed-17..19 take the sectioned leg.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(0), uint64(0), uint8(0))
	f.Add(int64(2), uint64(17), uint8(63), uint64(0), uint8(0))
	f.Add(int64(3), uint64(999), uint8(31), uint64(0x7000000000000001), uint8(0))
	f.Add(int64(7), uint64(123456), uint8(7), uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, idxRaw uint64, bit uint8, mask uint64, flags uint8) {
		m, err := lang.Compile(lang.RandomProgram(seed))
		if err != nil {
			t.Skip()
		}
		p, err := Compile(m, refInjectable)
		if err != nil {
			t.Skip()
		}
		golden := Run(p, Config{})
		ref := refRun(m, Config{}, refInjectable)
		diffCompare(t, "fuzz-golden", ref, golden)
		if golden.Trap != TrapNone || golden.Injectable[0] == 0 {
			return
		}
		pop := golden.Injectable[0]
		plan := &FaultPlan{
			Rank: 0, Index: int64(idxRaw % uint64(pop)), Bit: int(bit % 64),
			Mask: mask, Correlated: flags&1 != 0, Sticky: flags&2 != 0,
		}
		cfg := Config{Fault: plan, MaxInstrs: golden.MaxRankDyn*10 + 1_000_000}
		ref, zero := refRun(m, cfg, refInjectable), Run(p, cfg)
		diffCompare(t, "fuzz-armed", ref, zero)
		resumeLeg(t, "fuzz-armed", p, captureFor(t, p, golden), cfg, ref, zero)
		fullLoopLeg(t, "fuzz-armed", p, cfg, zero)
		if flags&4 == 0 {
			return
		}
		trace := Run(p, Config{Sections: &SectionConfig{}}).Sections
		var populated []int32
		for s, n := range trace.Pops {
			if n > 0 {
				populated = append(populated, int32(s))
			}
		}
		secPlan := *plan
		secPlan.Section = populated[idxRaw%uint64(len(populated))]
		secPlan.Index = int64(idxRaw / uint64(len(populated)) % uint64(trace.Pops[secPlan.Section]))
		cfg.Fault = &secPlan
		cfg.Sections = &SectionConfig{Golden: trace}
		zero = Run(p, cfg)
		if !zero.Injected {
			t.Fatalf("sectioned plan %+v did not inject", secPlan)
		}
		resumeLeg(t, "fuzz-sectioned", p, captureSectioned(t, p, golden), cfg, nil, zero)
		fullLoopLeg(t, "fuzz-sectioned", p, cfg, zero)
	})
}
