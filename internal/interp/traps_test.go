package interp

import (
	"testing"

	"ipas/internal/ir"
	"ipas/internal/lang"
)

// runIR parses, verifies, compiles and runs an IR module source.
func runIR(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	m.AssignSiteIDs()
	p, err := Compile(m, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return Run(p, cfg)
}

func TestTrapNullDeref(t *testing.T) {
	res := runIR(t, `
func @main() void {
entry:
  %p = inttoptr i64 8 to i64*
  %v = load i64* %p
  ret void
}
`, Config{})
	if res.Trap != TrapNull {
		t.Fatalf("trap = %v, want null-deref", res.Trap)
	}
}

func TestTrapOutOfBounds(t *testing.T) {
	res := runIR(t, `
func @main() void {
entry:
  %p = inttoptr i64 999999999999 to i64*
  store i64 1, %p
  ret void
}
`, Config{})
	if res.Trap != TrapOOB {
		t.Fatalf("trap = %v, want out-of-bounds", res.Trap)
	}
}

func TestTrapUnaligned(t *testing.T) {
	res := runIR(t, `
func @main() void {
entry:
  %a = alloca i64, 4
  %pi = ptrtoint i64* %a to i64
  %off = add i64 %pi, 3
  %p = inttoptr i64 %off to i64*
  %v = load i64* %p
  ret void
}
`, Config{})
	if res.Trap != TrapUnaligned {
		t.Fatalf("trap = %v, want unaligned", res.Trap)
	}
}

func TestTrapDivAndRemByZero(t *testing.T) {
	for _, op := range []string{"sdiv", "srem"} {
		res := runIR(t, `
func @main() void {
entry:
  %z = sub i64 1, 1
  %v = `+op+` i64 10, %z
  ret void
}
`, Config{})
		if res.Trap != TrapDivZero {
			t.Fatalf("%s: trap = %v, want div-by-zero", op, res.Trap)
		}
	}
}

func TestDivOverflowDefined(t *testing.T) {
	// INT64_MIN / -1 must not panic the host; it wraps.
	res := runIR(t, `
func @main() void {
entry:
  %min = shl i64 1, 63
  %m1 = sub i64 0, 1
  %v = sdiv i64 %min, %m1
  %r = srem i64 %min, %m1
  ret void
}
`, Config{})
	if res.Trap != TrapNone {
		t.Fatalf("trap = %v, want clean run", res.Trap)
	}
}

func TestTrapStackOverflowRecursion(t *testing.T) {
	src := `
func rec(n int) int {
	return rec(n + 1);
}
func main() {
	out_i64(0, rec(0));
}
`
	m, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(p, Config{})
	if res.Trap != TrapStackOverflow {
		t.Fatalf("trap = %v, want stack overflow", res.Trap)
	}
}

func TestTrapStackOverflowAlloca(t *testing.T) {
	res := runIR(t, `
func @main() void {
entry:
  %a = alloca f64, 10000000
  ret void
}
`, Config{})
	if res.Trap != TrapStackOverflow {
		t.Fatalf("trap = %v, want stack overflow", res.Trap)
	}
}

func TestTrapOutOfMemory(t *testing.T) {
	src := `
func main() {
	for (var i int = 0; i < 1000000; i = i + 1) {
		var p *float = malloc_f64(1048576);
		p[0] = 1.0;
	}
}
`
	m, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(p, Config{HeapBytes: 1 << 22})
	if res.Trap != TrapOOM {
		t.Fatalf("trap = %v, want out-of-memory", res.Trap)
	}
}

func TestAssertTrap(t *testing.T) {
	src := `
func main() {
	assert_true(1 == 2);
}
`
	m, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(p, Config{})
	if res.Trap != TrapAbort {
		t.Fatalf("trap = %v, want abort", res.Trap)
	}
}

func TestStackFrameReuse(t *testing.T) {
	// Allocas must be released on return: a function with a big alloca
	// called many times must not exhaust the stack.
	src := `
func work(n int) float {
	var buf *float = malloc_f64(8); // heap, fine
	var acc float = 0.0;
	for (var i int = 0; i < 8; i = i + 1) {
		buf[i] = float(n + i);
		acc = acc + buf[i];
	}
	return acc;
}
func main() {
	var s float = 0.0;
	for (var i int = 0; i < 100; i = i + 1) {
		s = s + work(i);
	}
	out_f64(0, s);
}
`
	m, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(p, Config{HeapBytes: 1 << 20})
	if res.Trap != TrapOOM {
		// 100 iterations x 64 bytes = 6.4 KB: fits in 1 MiB heap, so
		// the run must be clean — this guards the bump allocator
		// accounting, not frame reuse.
		if res.Trap != TrapNone {
			t.Fatalf("trap = %v", res.Trap)
		}
	}
	want := 0.0
	for i := 0; i < 100; i++ {
		for j := 0; j < 8; j++ {
			want += float64(i + j)
		}
	}
	if res.OutputF[0] != want {
		t.Fatalf("sum = %v, want %v", res.OutputF[0], want)
	}
}

func TestZeroInitializedMemory(t *testing.T) {
	res := runIR(t, `
func @main() void {
entry:
  %a = alloca i64, 4
  %v = load i64* %a
  %p = gep i64* %a, 3
  %w = load i64* %p
  %s = add i64 %v, %w
  ret void
}
`, Config{})
	if res.Trap != TrapNone {
		t.Fatalf("trap = %v", res.Trap)
	}
}
