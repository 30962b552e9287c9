package slicer

import (
	"testing"

	"ipas/internal/ir"
)

const liveSrc = `
func @main() i64 {
entry:
  %base = add i64 100, 0
  %n = add i64 8, 0
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i1, %loop]
  %acc = phi i64 [%base, %entry], [%acc1, %loop]
  %sq = mul i64 %i, %i
  %acc1 = add i64 %acc, %sq
  %i1 = add i64 %i, 1
  %c = icmp lt i64 %i1, %n
  condbr %c, %loop, %exit
exit:
  %r = add i64 %acc1, 0
  ret i64 %r
}
`

func names(vs []ir.Value) map[string]bool {
	m := map[string]bool{}
	for _, v := range vs {
		m[valueName(v)] = true
	}
	return m
}

func TestLivenessLoopCarried(t *testing.T) {
	fn := ir.MustParse(liveSrc).FuncByName("main")
	l := NewLiveness(fn)

	// Loop-carried values are live at the loop head; the phis
	// themselves are defined there, so they appear in the body's
	// running set, not in live-in.
	in := names(l.LiveIn(fn.BlockByName("loop")))
	if !in["n"] {
		t.Errorf("n (loop bound) must be live into loop, got %v", in)
	}
	if in["sq"] || in["r"] {
		t.Errorf("body-local/downstream values must not be live into loop, got %v", in)
	}

	// Phi operands ride the edge: %acc1 and %i1 are live OUT of the
	// loop block (they feed the back-edge phis and the exit).
	out := names(l.LiveOut(fn.BlockByName("loop")))
	for _, want := range []string{"acc1", "i1", "n"} {
		if !out[want] {
			t.Errorf("%s must be live out of loop, got %v", want, out)
		}
	}

	// After the loop only %acc1 matters.
	exitIn := names(l.LiveIn(fn.BlockByName("exit")))
	if !exitIn["acc1"] {
		t.Errorf("acc1 must be live into exit, got %v", exitIn)
	}
	if exitIn["i1"] || exitIn["sq"] {
		t.Errorf("dead values live into exit: %v", exitIn)
	}
}

func TestLivenessDeterministicOrder(t *testing.T) {
	fn := ir.MustParse(liveSrc).FuncByName("main")
	a := NewLiveness(fn).LiveIn(fn.BlockByName("loop"))
	b := NewLiveness(fn).LiveIn(fn.BlockByName("loop"))
	if len(a) != len(b) {
		t.Fatalf("live-in sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("live-in order not deterministic at %d", i)
		}
		if i > 0 && valueName(a[i-1]) >= valueName(a[i]) {
			t.Fatalf("live-in not sorted by name: %s >= %s", valueName(a[i-1]), valueName(a[i]))
		}
	}
}
