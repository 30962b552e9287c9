package ir

import "fmt"

// Builder constructs instructions at an insertion point, in the style
// of LLVM's IRBuilder. All factory methods register def-use edges and
// assign fresh SSA names to value-producing instructions.
type Builder struct {
	blk *Block
	// pos, when non-nil, makes the builder insert before this
	// instruction instead of appending at the block end.
	pos *Instr
}

// NewBuilder returns a builder appending to the end of b.
func NewBuilder(b *Block) *Builder { return &Builder{blk: b} }

// SetBlock repositions the builder at the end of b.
func (bd *Builder) SetBlock(b *Block) { bd.blk, bd.pos = b, nil }

// SetInsertBefore repositions the builder before instruction pos.
func (bd *Builder) SetInsertBefore(pos *Instr) { bd.blk, bd.pos = pos.block, pos }

// Block returns the current insertion block.
func (bd *Builder) Block() *Block { return bd.blk }

// insert finalizes and places a new instruction.
func (bd *Builder) insert(in *Instr) *Instr {
	if in.typ != Void && in.name == "" {
		in.name = bd.blk.fn.genName()
	}
	for _, opnd := range in.operands {
		if d, ok := opnd.(*Instr); ok {
			d.users = append(d.users, in)
		}
	}
	if bd.pos != nil {
		bd.blk.InsertBefore(in, bd.pos)
	} else {
		bd.blk.Append(in)
	}
	return in
}

func (bd *Builder) binary(op Op, x, y Value) *Instr {
	if x.Type() != y.Type() {
		panic(fmt.Sprintf("ir: %s operand type mismatch: %s vs %s", op, x.Type(), y.Type()))
	}
	return bd.insert(&Instr{op: op, typ: x.Type(), operands: []Value{x, y}})
}

// Integer arithmetic.

// Add builds an integer addition.
func (bd *Builder) Add(x, y Value) *Instr { return bd.binary(OpAdd, x, y) }

// Sub builds an integer subtraction.
func (bd *Builder) Sub(x, y Value) *Instr { return bd.binary(OpSub, x, y) }

// Mul builds an integer multiplication.
func (bd *Builder) Mul(x, y Value) *Instr { return bd.binary(OpMul, x, y) }

// SDiv builds a signed integer division.
func (bd *Builder) SDiv(x, y Value) *Instr { return bd.binary(OpSDiv, x, y) }

// SRem builds a signed integer remainder.
func (bd *Builder) SRem(x, y Value) *Instr { return bd.binary(OpSRem, x, y) }

// Floating-point arithmetic.

// FAdd builds a floating addition.
func (bd *Builder) FAdd(x, y Value) *Instr { return bd.binary(OpFAdd, x, y) }

// FSub builds a floating subtraction.
func (bd *Builder) FSub(x, y Value) *Instr { return bd.binary(OpFSub, x, y) }

// FMul builds a floating multiplication.
func (bd *Builder) FMul(x, y Value) *Instr { return bd.binary(OpFMul, x, y) }

// FDiv builds a floating division.
func (bd *Builder) FDiv(x, y Value) *Instr { return bd.binary(OpFDiv, x, y) }

// Logical operations.

// And builds a bitwise AND.
func (bd *Builder) And(x, y Value) *Instr { return bd.binary(OpAnd, x, y) }

// Or builds a bitwise OR.
func (bd *Builder) Or(x, y Value) *Instr { return bd.binary(OpOr, x, y) }

// Xor builds a bitwise XOR.
func (bd *Builder) Xor(x, y Value) *Instr { return bd.binary(OpXor, x, y) }

// Shl builds a left shift.
func (bd *Builder) Shl(x, y Value) *Instr { return bd.binary(OpShl, x, y) }

// AShr builds an arithmetic right shift.
func (bd *Builder) AShr(x, y Value) *Instr { return bd.binary(OpAShr, x, y) }

// Comparisons.

// ICmp builds an integer/pointer comparison producing i1.
func (bd *Builder) ICmp(p Pred, x, y Value) *Instr {
	if x.Type() != y.Type() {
		panic(fmt.Sprintf("ir: icmp type mismatch: %s vs %s", x.Type(), y.Type()))
	}
	return bd.insert(&Instr{op: OpICmp, typ: I1, Pred: p, operands: []Value{x, y}})
}

// FCmp builds a floating comparison producing i1.
func (bd *Builder) FCmp(p Pred, x, y Value) *Instr {
	if x.Type() != F64 || y.Type() != F64 {
		panic("ir: fcmp requires f64 operands")
	}
	return bd.insert(&Instr{op: OpFCmp, typ: I1, Pred: p, operands: []Value{x, y}})
}

// Memory operations.

// Alloca builds a stack allocation of elems elements of type elem and
// returns a pointer to the first.
func (bd *Builder) Alloca(elem *Type, elems int64) *Instr {
	return bd.insert(&Instr{op: OpAlloca, typ: PtrTo(elem), AllocElems: elems})
}

// Load reads a value of the pointer's element type.
func (bd *Builder) Load(ptr Value) *Instr {
	if !ptr.Type().IsPtr() {
		panic("ir: load requires pointer operand")
	}
	return bd.insert(&Instr{op: OpLoad, typ: ptr.Type().Elem(), operands: []Value{ptr}})
}

// Store writes val through ptr; produces no value.
func (bd *Builder) Store(val, ptr Value) *Instr {
	if !ptr.Type().IsPtr() || ptr.Type().Elem() != val.Type() {
		panic(fmt.Sprintf("ir: store type mismatch: %s into %s", val.Type(), ptr.Type()))
	}
	return bd.insert(&Instr{op: OpStore, typ: Void, operands: []Value{val, ptr}})
}

// GEP computes ptr + idx*sizeof(elem) and returns a pointer of the same
// type ("get-pointer instruction", the paper's feature 9).
func (bd *Builder) GEP(ptr, idx Value) *Instr {
	if !ptr.Type().IsPtr() {
		panic("ir: gep requires pointer operand")
	}
	if idx.Type() != I64 {
		panic("ir: gep index must be i64")
	}
	return bd.insert(&Instr{op: OpGEP, typ: ptr.Type(), operands: []Value{ptr, idx}})
}

// Casts.

// Cast builds the conversion op from x to type to.
func (bd *Builder) Cast(op Op, x Value, to *Type) *Instr {
	if !op.IsCast() {
		panic("ir: Cast with non-cast op " + op.String())
	}
	return bd.insert(&Instr{op: op, typ: to, operands: []Value{x}})
}

// SIToFP converts a signed integer to f64.
func (bd *Builder) SIToFP(x Value) *Instr { return bd.Cast(OpSIToFP, x, F64) }

// FPToSI converts an f64 to a signed integer of type to.
func (bd *Builder) FPToSI(x Value, to *Type) *Instr { return bd.Cast(OpFPToSI, x, to) }

// ZExt zero-extends an integer to a wider integer type.
func (bd *Builder) ZExt(x Value, to *Type) *Instr { return bd.Cast(OpZExt, x, to) }

// Other.

// Phi builds an empty PHI node of type t; fill it with AddIncoming.
func (bd *Builder) Phi(t *Type) *Instr {
	return bd.insert(&Instr{op: OpPhi, typ: t})
}

// AddIncoming appends an (value, predecessor) pair to a PHI node.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	if phi.op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.operands = append(phi.operands, v)
	phi.Incoming = append(phi.Incoming, pred)
	if d, ok := v.(*Instr); ok {
		d.users = append(d.users, phi)
	}
}

// Call builds a function call.
func (bd *Builder) Call(callee *Func, args ...Value) *Instr {
	if len(args) != len(callee.params) {
		panic(fmt.Sprintf("ir: call %s: want %d args, got %d", callee.name, len(callee.params), len(args)))
	}
	for i, a := range args {
		if a.Type() != callee.params[i].Type() {
			panic(fmt.Sprintf("ir: call %s arg %d: want %s, got %s",
				callee.name, i, callee.params[i].Type(), a.Type()))
		}
	}
	return bd.insert(&Instr{op: OpCall, typ: callee.retType, Callee: callee, operands: args})
}

// Terminators.

// Br builds an unconditional branch.
func (bd *Builder) Br(target *Block) *Instr {
	return bd.insert(&Instr{op: OpBr, typ: Void, Targets: []*Block{target}})
}

// CondBr builds a conditional branch (cond ? yes : no).
func (bd *Builder) CondBr(cond Value, yes, no *Block) *Instr {
	if cond.Type() != I1 {
		panic("ir: condbr condition must be i1")
	}
	return bd.insert(&Instr{op: OpCondBr, typ: Void, operands: []Value{cond}, Targets: []*Block{yes, no}})
}

// Ret builds a return; v is nil for void functions.
func (bd *Builder) Ret(v Value) *Instr {
	in := &Instr{op: OpRet, typ: Void}
	if v != nil {
		in.operands = []Value{v}
	}
	return bd.insert(in)
}

// Trap builds an abnormal-termination terminator with a reason code.
func (bd *Builder) Trap(code int64) *Instr {
	return bd.insert(&Instr{op: OpTrap, typ: Void, operands: []Value{ConstInt(I64, code)}})
}
