// Package interp executes the IPAS IR deterministically. It provides
// the behaviours the paper's evaluation observes: crashes (traps),
// hangs (instruction-budget exhaustion), duplication-check detections,
// dynamic instruction counts (the slowdown metric), and a fault hook
// that flips one bit in the result of a chosen dynamic instruction
// instance (the FlipIt fault model).
//
// Execution is a flat bytecode engine: Compile lowers each function to
// a contiguous instruction array with absolute jump targets and
// per-edge phi copy lists (prog.go), and RunContext starts each rank
// on either an uninstrumented fast loop or a fully instrumented one
// (exec.go), which a transient fault trial leaves for the fast loop
// once its flip is behind it. Both loops are observationally
// identical; DESIGN.md §7 documents the layout, the specialization
// matrix, and the invariants fault injection relies on.
package interp

import (
	"fmt"
	"math"
	"math/bits"

	"ipas/internal/ir"
)

// Val is a runtime value. Integer and pointer payloads live in I;
// floating payloads live in F. The static type of the producing
// instruction decides which field is meaningful.
type Val struct {
	I int64
	F float64
}

// IntVal wraps an integer payload.
func IntVal(v int64) Val { return Val{I: v} }

// FloatVal wraps a floating payload.
func FloatVal(v float64) Val { return Val{F: v} }

// Bool converts a truth value to the runtime representation of i1.
func Bool(b bool) Val {
	if b {
		return Val{I: 1}
	}
	return Val{}
}

// CorruptValue corrupts a produced value under the pluggable error
// models, before the injection hook writes it to its frame slot: it
// returns v corrupted per (bit, mask, correlated) and the *effective*
// mask actually XORed into the value's bit pattern, expressed in the
// result type's own width. The effective mask is what journals record —
// plans carry raw 64-bit positions, but a position only means something
// after folding modulo the width of the value it lands on.
//
//   - correlated: one flip, bit+1 positions above the value's most
//     significant set bit (wrapped to the width); a zero pattern
//     degrades to the plain bit%w flip. Corruption magnitude tracks
//     value magnitude.
//   - mask != 0: every set raw position folds modulo the width and the
//     folded positions XOR together. Folded positions can cancel — the
//     effective mask may be zero, leaving the value unchanged (the run
//     still counts as injected; callers see InjectedMask == 0).
//   - otherwise: the classic single flip at bit%w — for floats in the
//     IEEE-754 bit pattern, for integers in the two's-complement
//     pattern truncated to the type's width.
//
// Stickiness is not a per-application property: the execution loop
// re-invokes CorruptValue with the same parameters on every subsequent
// execution of the defective site.
func CorruptValue(v Val, t *ir.Type, bit int, mask uint64, correlated bool) (Val, uint64) {
	if t.IsFloat() {
		raw := math.Float64bits(v.F)
		eff := effectiveMask(raw, 64, bit, mask, correlated)
		return Val{F: math.Float64frombits(raw ^ eff)}, eff
	}
	w := t.Bits()
	if w == 0 {
		return v, 0
	}
	eff := effectiveMask(uint64(v.I)&widthMask(uint64(w)), w, bit, mask, correlated)
	return Val{I: truncToType(t, v.I^int64(eff))}, eff
}

// effectiveMask folds a plan's raw corruption parameters into the
// XOR mask for a w-bit value whose current bit pattern is pattern.
func effectiveMask(pattern uint64, w, bit int, mask uint64, correlated bool) uint64 {
	switch {
	case correlated:
		pos := bit % w
		if pattern != 0 {
			// bits.Len64 is the MSB index + 1, so this lands bit+1
			// positions above the top set bit, wrapped to the width.
			pos = (bits.Len64(pattern) + bit) % w
		}
		return 1 << uint(pos)
	case mask != 0:
		var eff uint64
		for m := mask; m != 0; m &= m - 1 {
			eff ^= 1 << (uint(bits.TrailingZeros64(m)) % uint(w))
		}
		return eff
	default:
		return 1 << uint(bit%w)
	}
}

func truncToType(t *ir.Type, v int64) int64 {
	switch t.Kind() {
	case ir.I1Kind:
		return v & 1
	case ir.I8Kind:
		return int64(int8(v))
	case ir.I32Kind:
		return int64(int32(v))
	default:
		return v
	}
}

// Trap enumerates abnormal-termination causes. The fault-outcome
// classifier maps traps onto the paper's outcome categories: every trap
// except TrapDetected is an "observable symptom"; TrapDetected is
// "detected by duplication".
type Trap int

const (
	// TrapNone means normal termination.
	TrapNone Trap = iota
	// TrapOOB is an out-of-bounds or unmapped memory access (segfault).
	TrapOOB
	// TrapNull is a null-page dereference.
	TrapNull
	// TrapUnaligned is a misaligned memory access.
	TrapUnaligned
	// TrapDivZero is an integer division or remainder by zero.
	TrapDivZero
	// TrapStackOverflow is stack exhaustion (deep recursion / big allocas).
	TrapStackOverflow
	// TrapOOM is heap exhaustion.
	TrapOOM
	// TrapBudget is the hang detector: the per-rank dynamic instruction
	// budget was exceeded.
	TrapBudget
	// TrapDetected is a duplication-check mismatch (protection fired).
	TrapDetected
	// TrapAbort is an explicit abort (failed runtime assertion, bad
	// builtin argument, invalid MPI destination, ...).
	TrapAbort
	// TrapDeadlock is declared structurally by the rank supervisor
	// (supervisor.go): every non-exited rank is blocked in an MPI
	// operation and no pending operation can match. No wall-clock
	// value is involved, so the outcome is deterministic.
	TrapDeadlock
	// TrapCancelled means the embedding Go context was cancelled (or
	// its deadline expired) while the job ran. It is an infrastructure
	// condition of the harness, not a modeled fault outcome: campaign
	// layers must treat it as "trial not executed", never as a symptom.
	TrapCancelled
	// TrapWatchdog means the defense-in-depth wall-clock watchdog on a
	// blocked MPI operation expired. Like TrapCancelled it is an
	// infrastructure condition — genuine deadlocks are detected
	// structurally and instantly, so an expiry indicates a supervisor
	// bug or a pathologically overloaded host, and campaign layers
	// must retry the trial, never classify it.
	TrapWatchdog
)

var trapNames = map[Trap]string{
	TrapNone: "none", TrapOOB: "out-of-bounds", TrapNull: "null-deref",
	TrapUnaligned: "unaligned", TrapDivZero: "div-by-zero",
	TrapStackOverflow: "stack-overflow", TrapOOM: "out-of-memory",
	TrapBudget: "instruction-budget (hang)", TrapDetected: "detected-by-duplication",
	TrapAbort: "abort", TrapDeadlock: "deadlock", TrapCancelled: "cancelled",
	TrapWatchdog: "watchdog (infrastructure)",
}

// String names the trap.
func (t Trap) String() string {
	if s, ok := trapNames[t]; ok {
		return s
	}
	return fmt.Sprintf("trap(%d)", int(t))
}

// trapPanic carries a trap through the Go stack of the evaluator.
type trapPanic struct {
	trap Trap
	msg  string
}
