package ir

import "fmt"

// Op enumerates the instruction opcodes of the IR.
type Op int

const (
	// Integer arithmetic.
	OpAdd Op = iota
	OpSub
	OpMul
	OpSDiv
	OpSRem
	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	// Logical / bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Comparisons (produce i1).
	OpICmp
	OpFCmp
	// Memory.
	OpLoad
	OpStore
	OpAlloca
	OpGEP
	OpAtomicRMW // modeled atomic read-modify-write add on i64
	// Casts.
	OpTrunc
	OpZExt
	OpSExt
	OpSIToFP
	OpFPToSI
	OpPtrToInt
	OpIntToPtr
	OpBitcast // f64 <-> i64 bit reinterpretation
	// Other value-producing instructions.
	OpPhi
	OpSelect
	OpCall
	// Terminators.
	OpBr
	OpCondBr
	OpRet
	OpTrap // abnormal termination inserted by protection checks

	numOps
)

var opNames = [numOps]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpLoad: "load", OpStore: "store", OpAlloca: "alloca", OpGEP: "gep", OpAtomicRMW: "atomicrmw",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr",
	OpBitcast: "bitcast",
	OpPhi:     "phi", OpSelect: "select", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpTrap: "trap",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// opByName maps mnemonics back to opcodes for the parser.
var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op, name := range opNames {
		m[name] = Op(op)
	}
	return m
}()

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpTrap:
		return true
	}
	return false
}

// IsBinary reports whether the opcode is a two-operand arithmetic or
// logical operation (the paper's feature 1).
func (o Op) IsBinary() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem,
		OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		return true
	}
	return false
}

// IsCast reports whether the opcode is a type conversion.
func (o Op) IsCast() bool {
	switch o {
	case OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI, OpPtrToInt, OpIntToPtr, OpBitcast:
		return true
	}
	return false
}

// IsLogical reports whether the opcode is a bitwise/logical operation
// (the paper's feature 5).
func (o Op) IsLogical() bool {
	switch o {
	case OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		return true
	}
	return false
}

// Pred is a comparison predicate for icmp/fcmp.
type Pred int

const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE

	numPreds
)

var predNames = [numPreds]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the predicate mnemonic.
func (p Pred) String() string {
	if p < 0 || p >= numPreds {
		return fmt.Sprintf("pred(%d)", int(p))
	}
	return predNames[p]
}

// predByName maps mnemonics back to predicates for the parser.
var predByName = map[string]Pred{
	"eq": PredEQ, "ne": PredNE, "lt": PredLT, "le": PredLE, "gt": PredGT, "ge": PredGE,
}

// ProtKind tags instructions added by the protection passes so that the
// fault injector and the reporters can distinguish them from original
// application code.
type ProtKind uint8

const (
	// ProtNone marks original application instructions.
	ProtNone ProtKind = iota
	// ProtDup marks shadow copies inserted by a duplication pass.
	ProtDup
	// ProtCheck marks comparison/branch instructions that validate a
	// duplication path.
	ProtCheck
)

// Instr is a single IR instruction. Value-producing instructions are
// themselves Values and can be used as operands of later instructions.
type Instr struct {
	op   Op
	typ  *Type
	name string // SSA register name (empty for void instructions)

	operands []Value
	users    []*Instr // def-use chain: instructions using this instruction
	block    *Block

	// Pred is the comparison predicate (icmp/fcmp only).
	Pred Pred
	// Callee is the called function (call only).
	Callee *Func
	// Incoming lists the predecessor block per operand (phi only),
	// parallel to the operand list.
	Incoming []*Block
	// Targets lists the successor blocks (br: 1, condbr: 2 [true, false]).
	Targets []*Block
	// AllocElems is the static element count of an alloca.
	AllocElems int64

	// SiteID is a module-unique identifier assigned to original
	// instructions; protection code inherits the SiteID of the
	// instruction it shadows. It keys feature vectors and the fault
	// injector's site table.
	SiteID int
	// Prot records whether the instruction is original code, a shadow
	// duplicate, or a protection check.
	Prot ProtKind
	// Shadow links a ProtDup instruction back to the original it copies.
	Shadow *Instr
}

// NewInstr creates a detached instruction with the given opcode, result
// type and operands, wiring def-use edges. The caller must place it
// into a block (Append/InsertBefore/InsertAfter) and, for named values,
// set a name. Used by transformation passes; the Builder is the usual
// construction path.
func NewInstr(op Op, typ *Type, operands []Value) *Instr {
	in := &Instr{op: op, typ: typ}
	for _, v := range operands {
		in.operands = append(in.operands, v)
		if d, ok := v.(*Instr); ok {
			d.users = append(d.users, in)
		}
	}
	return in
}

// Op returns the opcode.
func (in *Instr) Op() Op { return in.op }

// Type implements Value.
func (in *Instr) Type() *Type { return in.typ }

// Ref implements Value.
func (in *Instr) Ref() string { return "%" + in.name }

// Name returns the SSA register name without the leading '%'.
func (in *Instr) Name() string { return in.name }

// SetName renames the instruction's SSA register.
func (in *Instr) SetName(n string) { in.name = n }

// Block returns the basic block containing the instruction.
func (in *Instr) Block() *Block { return in.block }

// Operands returns the operand list. The returned slice must not be
// mutated directly; use SetOperand.
func (in *Instr) Operands() []Value { return in.operands }

// Operand returns the i-th operand.
func (in *Instr) Operand(i int) Value { return in.operands[i] }

// NumOperands returns the number of operands.
func (in *Instr) NumOperands() int { return len(in.operands) }

// SetOperand replaces the i-th operand, maintaining def-use chains.
func (in *Instr) SetOperand(i int, v Value) {
	if old, ok := in.operands[i].(*Instr); ok {
		old.removeUser(in)
	}
	in.operands[i] = v
	if nv, ok := v.(*Instr); ok {
		nv.users = append(nv.users, in)
	}
}

// Users returns the instructions that use this instruction as an
// operand (the def-use chain). An instruction using this value several
// times appears once per use.
func (in *Instr) Users() []*Instr { return in.users }

func (in *Instr) removeUser(u *Instr) {
	for i, x := range in.users {
		if x == u {
			in.users = append(in.users[:i], in.users[i+1:]...)
			return
		}
	}
}

// ReplaceAllUsesWith rewrites every use of in to refer to v instead.
func (in *Instr) ReplaceAllUsesWith(v Value) {
	for len(in.users) > 0 {
		u := in.users[0]
		for i, opnd := range u.operands {
			if opnd == in {
				u.SetOperand(i, v)
			}
		}
	}
}

// clearOperands detaches the instruction from the def-use chains of its
// operands; used when removing instructions.
func (in *Instr) clearOperands() {
	for i := range in.operands {
		if d, ok := in.operands[i].(*Instr); ok {
			d.removeUser(in)
		}
		in.operands[i] = nil
	}
	in.operands = in.operands[:0]
}

// HasResult reports whether the instruction produces a value.
func (in *Instr) HasResult() bool { return in.typ != Void }

// String renders the instruction in the textual IR syntax.
func (in *Instr) String() string { return printInstr(in) }
