package interp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"ipas/internal/ir"
)

// Program is a module lowered to flat bytecode that the evaluator
// executes without map lookups or IR back-references. Compilation is
// deterministic; a Program is immutable and safely shared by concurrent
// ranks.
type Program struct {
	mod   *ir.Module
	funcs map[*ir.Func]*progFunc
	main  *progFunc

	// Injectable reports whether a static instruction is a fault-
	// injection site; fixed at compile time so instance counting is
	// identical between golden and injection runs.
	injectable func(*ir.Instr) bool

	// NumSites is the module's site-table size.
	NumSites int

	// zeroFrames forces call frames to be zeroed before use. It is off
	// for modules that pass ir.Verify: SSA dominance guarantees every
	// slot is written before it is read, so zeroing is dead work (it
	// dominated call-heavy profiles). Unverifiable modules keep the
	// old deterministic zero-fill behavior.
	zeroFrames bool

	// fpOnce/fp back Fingerprint.
	fpOnce sync.Once
	fp     string

	// secOnce/secs back sections: the section projection, built on
	// first section-tracked use (section.go).
	secOnce sync.Once
	secs    *progSections
}

// Fingerprint is a stable content hash identifying this compiled
// program for result caching: the module's canonical printed form, the
// per-instruction injectable bitmap (two programs from one module but
// different fault models must not share golden results — their
// injectable populations differ), and the site-table size.
func (p *Program) Fingerprint() string {
	p.fpOnce.Do(func() {
		h := sha256.New()
		io.WriteString(h, ir.Print(p.mod))
		h.Write([]byte{0})
		for _, f := range p.mod.Funcs() {
			if f.Builtin {
				continue
			}
			pf := p.funcs[f]
			var b byte
			for i := range pf.code {
				b <<= 1
				if pf.code[i].injectable {
					b |= 1
				}
				if i&7 == 7 {
					h.Write([]byte{b})
					b = 0
				}
			}
			h.Write([]byte{b, 0xff})
		}
		fmt.Fprintf(h, "sites:%d", p.NumSites)
		p.fp = hex.EncodeToString(h.Sum(nil))
	})
	return p.fp
}

// progFunc is one function lowered to a single contiguous instruction
// array. Control flow uses absolute indices into code; there are no
// block boundaries at run time. Entry is pc 0.
type progFunc struct {
	fn       *ir.Func
	builtin  builtinID
	numSlots int
	code     []pInstr
	// consts is the function's constant pool; operand index ^i (i.e.
	// negative) refers to consts[i].
	consts []Val
	// edgeCopies holds the phi parallel-copy lists, one per CFG edge
	// that carries phis; pInstr.edges indexes into it. Resolving the
	// (pred, succ) pair at lowering time is what removes the old
	// per-block-entry predecessor scan from the hot loop.
	edgeCopies [][]phiCopy
	// blockOf maps each pc onto the index of its source block in
	// fn.Blocks(). It is a side table — never consulted by the
	// execution loops — that lets section analysis (section.go)
	// project an IR block partition onto flat pcs.
	blockOf []int32
}

// phiCopy is one slot assignment of a parallel copy (dst = src). All
// reads of a copy list happen before any write.
type phiCopy struct {
	dst int32
	src int32 // operand encoding: slot if >= 0, else consts[^src]
}

// pInstr is one packed bytecode instruction. Everything the evaluator
// needs at run time — jump targets, operand encodings, memory widths,
// site id, zext source mask — is precomputed here at lowering time; no
// field points back into the IR.
type pInstr struct {
	typ    *ir.Type
	callee *progFunc
	// ops lists every operand (same encoding as phiCopy.src) for
	// instructions with more than two, and for calls (argument
	// marshalling iterates it). a0/a1 carry the first two operands of
	// everything else.
	ops        []int32
	elemSize   int64 // gep scale / alloca element size / load-store-rmw width
	allocBytes int64
	srcMask    uint64 // zext: mask of the source type's width

	a0, a1  int32
	dst     int32 // destination slot, -1 if none
	siteID  int32
	targets [2]int32 // absolute pc of branch targets
	edges   [2]int32 // edgeCopies index per target, -1 if the edge has no phis

	op         ir.Op
	pred       ir.Pred
	nops       uint8
	storeFloat bool // store payload is f64
	isFloat    bool // result type is f64 (load/bitcast interpretation)
	injectable bool
}

// Compile lowers a verified module into executable form. injectable
// selects fault-injection sites; nil means nothing is injectable.
func Compile(m *ir.Module, injectable func(*ir.Instr) bool) (*Program, error) {
	if injectable == nil {
		injectable = func(*ir.Instr) bool { return false }
	}
	p := &Program{
		mod:        m,
		funcs:      map[*ir.Func]*progFunc{},
		injectable: injectable,
		NumSites:   m.NumSites(),
		zeroFrames: ir.Verify(m) != nil,
	}
	// Shells first so calls resolve.
	for _, f := range m.Funcs() {
		pf := &progFunc{fn: f, builtin: builtinNone}
		if f.Builtin {
			id, ok := builtinByName[f.Name()]
			if !ok {
				return nil, fmt.Errorf("interp: unknown builtin @%s", f.Name())
			}
			pf.builtin = id
		}
		p.funcs[f] = pf
	}
	for _, f := range m.Funcs() {
		if f.Builtin {
			continue
		}
		if err := p.compileFunc(f); err != nil {
			return nil, err
		}
	}
	mainFn := m.FuncByName("main")
	if mainFn == nil {
		return nil, fmt.Errorf("interp: module has no @main")
	}
	if len(mainFn.Params()) != 0 {
		return nil, fmt.Errorf("interp: @main must take no parameters")
	}
	p.main = p.funcs[mainFn]
	return p, nil
}

// Module returns the compiled module.
func (p *Program) Module() *ir.Module { return p.mod }

// frameSlots numbers f's frame slots: parameters first, then
// result-producing instructions in block order. It returns the slot of
// every value and the slot count.
func frameSlots(f *ir.Func) (map[ir.Value]int32, int) {
	slot := map[ir.Value]int32{}
	for _, prm := range f.Params() {
		slot[prm] = int32(len(slot))
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.HasResult() {
				slot[in] = int32(len(slot))
			}
		}
	}
	return slot, len(slot)
}

func (p *Program) compileFunc(f *ir.Func) error {
	pf := p.funcs[f]
	slot, numSlots := frameSlots(f)
	pf.numSlots = numSlots

	constIdx := map[Val]int32{}
	resolve := func(v ir.Value) int32 {
		if c, ok := v.(*ir.Const); ok {
			var cv Val
			if c.Type().IsFloat() {
				cv = FloatVal(c.Float)
			} else {
				cv = IntVal(c.Int)
			}
			// NaN-valued keys never hit; they just take a fresh pool
			// entry each time, which is harmless.
			if i, ok := constIdx[cv]; ok {
				return ^i
			}
			i := int32(len(pf.consts))
			pf.consts = append(pf.consts, cv)
			constIdx[cv] = i
			return ^i
		}
		s, ok := slot[v]
		if !ok {
			panic(fmt.Sprintf("interp: unresolved value %s in @%s", v.Ref(), f.Name()))
		}
		return s
	}

	// Pass 1: assign each block its absolute start pc. A block's code is
	// its non-phi instructions up to and including the first terminator
	// (trailing dead code is unreachable in the old per-block walker too
	// and is simply not emitted).
	start := map[*ir.Block]int32{}
	pc := 0
	for _, b := range f.Blocks() {
		start[b] = int32(pc)
		term := false
		for _, in := range b.Instrs() {
			if in.Op() == ir.OpPhi {
				continue
			}
			pc++
			if in.Op().IsTerminator() {
				term = true
				break
			}
		}
		if !term {
			return fmt.Errorf("interp: block %%%s in @%s has no terminator", b.Name(), f.Name())
		}
	}
	pf.code = make([]pInstr, 0, pc)

	// edgeFor resolves the phi parallel copies for the CFG edge
	// pred -> succ, indexed by the (pred, succ) pair at lowering time.
	edgeFor := func(pred, succ *ir.Block) ([]phiCopy, error) {
		var cps []phiCopy
		for _, phi := range succ.Phis() {
			found := false
			for i, inc := range phi.Incoming {
				if inc == pred {
					cps = append(cps, phiCopy{dst: slot[phi], src: resolve(phi.Operand(i))})
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("interp: phi %s in %%%s has no incoming for predecessor %%%s in @%s",
					phi.Ref(), succ.Name(), pred.Name(), f.Name())
			}
		}
		return cps, nil
	}

	// Pass 2: emit the flat stream.
	pf.blockOf = make([]int32, 0, pc)
	for bi, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.OpPhi {
				continue // handled by edge copies
			}
			pi := pInstr{
				op:      in.Op(),
				typ:     in.Type(),
				pred:    in.Pred,
				dst:     -1,
				siteID:  int32(in.SiteID),
				targets: [2]int32{-1, -1},
				edges:   [2]int32{-1, -1},
			}
			if in.HasResult() {
				pi.dst = slot[in]
				pi.isFloat = in.Type().IsFloat()
			}
			opnds := in.Operands()
			nops := len(opnds)
			if nops > 255 {
				return fmt.Errorf("interp: instruction %s in @%s has %d operands", in.Ref(), f.Name(), nops)
			}
			pi.nops = uint8(nops)
			if nops > 0 {
				pi.a0 = resolve(opnds[0])
			}
			if nops > 1 {
				pi.a1 = resolve(opnds[1])
			}
			if nops > 2 || in.Op() == ir.OpCall {
				pi.ops = make([]int32, nops)
				for i, o := range opnds {
					pi.ops[i] = resolve(o)
				}
			}
			for i, t := range in.Targets {
				if i >= 2 {
					break
				}
				pi.targets[i] = start[t]
				cps, err := edgeFor(b, t)
				if err != nil {
					return err
				}
				if len(cps) > 0 {
					pi.edges[i] = int32(len(pf.edgeCopies))
					pf.edgeCopies = append(pf.edgeCopies, cps)
				}
			}
			switch in.Op() {
			case ir.OpCall:
				pi.callee = p.funcs[in.Callee]
			case ir.OpGEP:
				pi.elemSize = in.Type().Elem().Size()
			case ir.OpAlloca:
				pi.elemSize = in.Type().Elem().Size()
				pi.allocBytes = align8(pi.elemSize * in.AllocElems)
			case ir.OpLoad:
				pi.elemSize = in.Type().Size()
			case ir.OpStore:
				pi.elemSize = in.Operand(0).Type().Size()
				pi.storeFloat = in.Operand(0).Type().IsFloat()
			case ir.OpAtomicRMW:
				pi.elemSize = in.Type().Size()
			case ir.OpZExt:
				pi.srcMask = widthMask(uint64(in.Operand(0).Type().Bits()))
			}
			pi.injectable = in.HasResult() && p.injectable(in)
			pf.code = append(pf.code, pi)
			pf.blockOf = append(pf.blockOf, int32(bi))
			if in.Op().IsTerminator() {
				break
			}
		}
	}
	if len(pf.code) != pc {
		return fmt.Errorf("interp: lowering @%s emitted %d instructions, expected %d", f.Name(), len(pf.code), pc)
	}
	return nil
}

func align8(n int64) int64 { return (n + 7) &^ 7 }
