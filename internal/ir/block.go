package ir

// Block is a basic block: a straight-line sequence of instructions
// ending in exactly one terminator.
type Block struct {
	name   string
	fn     *Func
	instrs []*Instr
}

// Name returns the block label without the leading '%'.
func (b *Block) Name() string { return b.name }

// Func returns the function containing the block.
func (b *Block) Func() *Func { return b.fn }

// Instrs returns the block's instructions in order. The slice must not
// be mutated directly.
func (b *Block) Instrs() []*Instr { return b.instrs }

// NumInstrs returns the number of instructions in the block (the
// paper's feature 14, "size of basic block").
func (b *Block) NumInstrs() int { return len(b.instrs) }

// Terminator returns the block's final instruction, or nil if the block
// is still under construction.
func (b *Block) Terminator() *Instr {
	if n := len(b.instrs); n > 0 && b.instrs[n-1].op.IsTerminator() {
		return b.instrs[n-1]
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Preds returns the predecessor blocks, computed by scanning the
// function (cheap at our scale and always up to date).
func (b *Block) Preds() []*Block {
	var preds []*Block
	for _, bb := range b.fn.blocks {
		for _, s := range bb.Succs() {
			if s == b {
				preds = append(preds, bb)
				break
			}
		}
	}
	return preds
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) {
	in.block = b
	b.instrs = append(b.instrs, in)
}

// InsertBefore inserts in immediately before pos, which must be in b.
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	idx := b.indexOf(pos)
	in.block = b
	b.instrs = append(b.instrs, nil)
	copy(b.instrs[idx+1:], b.instrs[idx:])
	b.instrs[idx] = in
}

// InsertAfter inserts in immediately after pos, which must be in b.
func (b *Block) InsertAfter(in *Instr, pos *Instr) {
	idx := b.indexOf(pos) + 1
	in.block = b
	b.instrs = append(b.instrs, nil)
	copy(b.instrs[idx+1:], b.instrs[idx:])
	b.instrs[idx] = in
}

// Remove deletes in from the block, detaching its operand uses. The
// instruction must have no remaining users.
func (b *Block) Remove(in *Instr) {
	if len(in.users) > 0 {
		panic("ir: removing instruction that still has users: " + in.String())
	}
	idx := b.indexOf(in)
	in.clearOperands()
	in.block = nil
	b.instrs = append(b.instrs[:idx], b.instrs[idx+1:]...)
}

func (b *Block) indexOf(in *Instr) int {
	for i, x := range b.instrs {
		if x == in {
			return i
		}
	}
	panic("ir: instruction not in block " + b.name)
}

// Index returns the position of in within the block.
func (b *Block) Index(in *Instr) int { return b.indexOf(in) }

// Phis returns the leading PHI instructions of the block.
func (b *Block) Phis() []*Instr {
	var phis []*Instr
	for _, in := range b.instrs {
		if in.op != OpPhi {
			break
		}
		phis = append(phis, in)
	}
	return phis
}
