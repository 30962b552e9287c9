package slicer

import (
	"sort"

	"ipas/internal/ir"
)

// Liveness is the backward SSA live-variable analysis of one function:
// which values (instruction results and parameters) may still be read
// on some path from a program point. Sectioned campaigns use it to
// bound what interp must capture at section boundaries, and the feature
// extractor shares the same definition of "live" — one analysis, two
// consumers.
//
// Phi semantics follow SSA convention: a phi's i-th operand is used at
// the end of its i-th predecessor (it rides the edge), and the phi's
// own result is defined at the head of its block.
type Liveness struct {
	fn      *ir.Func
	liveIn  map[*ir.Block]map[ir.Value]bool
	liveOut map[*ir.Block]map[ir.Value]bool
}

// NewLiveness computes liveness for fn with the standard iterative
// backward dataflow over the CFG.
func NewLiveness(fn *ir.Func) *Liveness {
	l := &Liveness{
		fn:      fn,
		liveIn:  map[*ir.Block]map[ir.Value]bool{},
		liveOut: map[*ir.Block]map[ir.Value]bool{},
	}
	blocks := fn.Blocks()
	for _, b := range blocks {
		l.liveIn[b] = map[ir.Value]bool{}
		l.liveOut[b] = map[ir.Value]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := blocks[i]
			out := l.computeLiveOut(b)
			in := l.computeLiveIn(b, out)
			if grewInto(l.liveOut[b], out) {
				l.liveOut[b] = out
				changed = true
			}
			if grewInto(l.liveIn[b], in) {
				l.liveIn[b] = in
				changed = true
			}
		}
	}
	return l
}

// computeLiveOut unions each successor's live-in (minus its phi
// definitions, which are born at the successor's head) with the phi
// operands that ride the b->succ edge.
func (l *Liveness) computeLiveOut(b *ir.Block) map[ir.Value]bool {
	out := map[ir.Value]bool{}
	for _, s := range b.Succs() {
		phiDefs := map[ir.Value]bool{}
		for _, phi := range s.Phis() {
			phiDefs[phi] = true
			for i, pred := range phi.Incoming {
				if pred == b {
					if v := phi.Operand(i); trackable(v) {
						out[v] = true
					}
				}
			}
		}
		for v := range l.liveIn[s] {
			if !phiDefs[v] {
				out[v] = true
			}
		}
	}
	return out
}

// computeLiveIn walks b backward from out: kill definitions, gen
// non-phi uses (phi uses live on predecessor edges, handled above).
func (l *Liveness) computeLiveIn(b *ir.Block, out map[ir.Value]bool) map[ir.Value]bool {
	in := map[ir.Value]bool{}
	for v := range out {
		in[v] = true
	}
	instrs := b.Instrs()
	for i := len(instrs) - 1; i >= 0; i-- {
		step(in, instrs[i])
	}
	return in
}

// step updates the running live set across one instruction, backward.
func step(live map[ir.Value]bool, in *ir.Instr) {
	if in.HasResult() {
		delete(live, in)
	}
	if in.Op() == ir.OpPhi {
		return // operands are uses on predecessor edges, not here
	}
	for _, op := range in.Operands() {
		if trackable(op) {
			live[op] = true
		}
	}
}

// grewInto reports whether the recomputed set grew past the recorded
// one. The transfer functions are monotone (sets only ever gain
// members across iterations), so a size comparison is exact.
func grewInto(old, now map[ir.Value]bool) bool { return len(now) > len(old) }

// trackable reports whether v is an SSA value liveness tracks
// (constants are always available and never captured).
func trackable(v ir.Value) bool {
	switch v.(type) {
	case *ir.Instr, *ir.Param:
		return true
	}
	return false
}

// LiveIn returns the values live at the head of b, sorted by name for
// deterministic consumption (snapshot layouts, fingerprints).
func (l *Liveness) LiveIn(b *ir.Block) []ir.Value { return sortedValues(l.liveIn[b]) }

// LiveOut returns the values live at the end of b (including phi
// operands riding b's outgoing edges), sorted by name.
func (l *Liveness) LiveOut(b *ir.Block) []ir.Value { return sortedValues(l.liveOut[b]) }

// sortedValues renders a live set deterministically: parameters and
// instruction results sorted by their SSA names.
func sortedValues(set map[ir.Value]bool) []ir.Value {
	out := make([]ir.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return valueName(out[i]) < valueName(out[j]) })
	return out
}

func valueName(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return x.Name()
	case *ir.Param:
		return x.Name()
	}
	return v.Ref()
}
