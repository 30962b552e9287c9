package ir

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPtrToConcurrent(t *testing.T) {
	// Modules are compiled concurrently, so interning pointer types
	// must be safe from several goroutines (run under -race) and still
	// hand every caller the same pointer type.
	const n = 8
	elem := PtrTo(PtrTo(I32)) // a fresh chain: i32***
	got := make([]*Type, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = PtrTo(elem)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] || got[g].Elem() != elem {
			t.Fatalf("goroutine %d got %v (%p), goroutine 0 %v (%p)", g, got[g], got[g], got[0], got[0])
		}
	}
}

func TestTypeBasics(t *testing.T) {
	cases := []struct {
		typ  *Type
		str  string
		size int64
		bits int
	}{
		{Void, "void", 0, 0},
		{I1, "i1", 1, 1},
		{I8, "i8", 1, 8},
		{I32, "i32", 4, 32},
		{I64, "i64", 8, 64},
		{F64, "f64", 8, 64},
		{PtrTo(F64), "f64*", 8, 64},
		{PtrTo(PtrTo(I64)), "i64**", 8, 64},
	}
	for _, c := range cases {
		if c.typ.String() != c.str {
			t.Errorf("String() = %q, want %q", c.typ.String(), c.str)
		}
		if c.typ.Size() != c.size {
			t.Errorf("%s Size() = %d, want %d", c.str, c.typ.Size(), c.size)
		}
		if c.typ.Bits() != c.bits {
			t.Errorf("%s Bits() = %d, want %d", c.str, c.typ.Bits(), c.bits)
		}
		if c.typ != Void {
			got, err := ParseType(c.str)
			if err != nil || got != c.typ {
				t.Errorf("ParseType(%q) = %v, %v; want interned %v", c.str, got, err, c.typ)
			}
		}
	}
	if PtrTo(F64) != PtrTo(F64) {
		t.Error("pointer types not interned")
	}
	if _, err := ParseType("void*"); err == nil {
		t.Error("pointer to void accepted")
	}
	if _, err := ParseType("i7"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestConstTruncation(t *testing.T) {
	if ConstInt(I8, 300).Int != 44 {
		t.Errorf("i8 300 = %d, want 44", ConstInt(I8, 300).Int)
	}
	if ConstInt(I8, -1).Int != -1 {
		t.Error("i8 -1 must stay -1")
	}
	if ConstInt(I1, 3).Int != 1 {
		t.Error("i1 3 must truncate to 1")
	}
	if ConstInt(I32, 1<<40).Int != 0 {
		t.Error("i32 2^40 must truncate to 0")
	}
	if ConstBool(true).Int != 1 || ConstBool(false).Int != 0 {
		t.Error("bool constants")
	}
}

func TestFloatConstantRoundtrip(t *testing.T) {
	// Every float64 (including NaN payloads and infinities) must print
	// to a token the parser reads back to identical bits.
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		tok := formatFloat(v)
		m := NewModule()
		fn := m.NewFunc("main", Void, nil, nil)
		b := NewBuilder(fn.NewBlock("entry"))
		b.FAdd(ConstFloat(v), ConstFloat(0))
		b.Ret(nil)
		src := Print(m)
		m2, err := Parse(src)
		if err != nil {
			t.Logf("parse error for %q: %v", tok, err)
			return false
		}
		in := m2.FuncByName("main").Entry().Instrs()[0]
		c := in.Operand(0).(*Const)
		return math.Float64bits(c.Float) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUseDefChains(t *testing.T) {
	m := NewModule()
	fn := m.NewFunc("f", I64, []string{"a"}, []*Type{I64})
	b := NewBuilder(fn.NewBlock("entry"))
	a := fn.Params()[0]
	x := b.Add(a, ConstInt(I64, 1))
	y := b.Mul(x, x)
	b.Ret(y)

	if len(x.Users()) != 2 {
		t.Fatalf("x has %d users, want 2 (mul uses it twice)", len(x.Users()))
	}
	// ReplaceAllUsesWith rewires both uses.
	z := b2Add(fn, a)
	x.ReplaceAllUsesWith(z)
	if len(x.Users()) != 0 {
		t.Fatal("x still has users after RAUW")
	}
	if y.Operand(0) != z || y.Operand(1) != z {
		t.Fatal("mul operands not rewritten")
	}
	// Removing x must now succeed.
	x.Block().Remove(x)
	if err := Verify(m); err != nil {
		t.Fatalf("verify after RAUW/remove: %v", err)
	}
}

// b2Add appends "a+2" at the start of the entry block.
func b2Add(fn *Func, a Value) *Instr {
	entry := fn.Entry()
	bld := NewBuilder(entry)
	bld.SetInsertBefore(entry.Instrs()[0])
	return bld.Add(a, ConstInt(I64, 2))
}

func TestVerifyRejectsBrokenModules(t *testing.T) {
	build := func(f func(*Module)) error {
		m := NewModule()
		f(m)
		return Verify(m)
	}
	cases := []struct {
		name string
		f    func(*Module)
	}{
		{"no blocks", func(m *Module) {
			m.NewFunc("main", Void, nil, nil)
		}},
		{"no terminator", func(m *Module) {
			fn := m.NewFunc("main", Void, nil, nil)
			b := NewBuilder(fn.NewBlock("entry"))
			b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
		}},
		{"ret type mismatch", func(m *Module) {
			fn := m.NewFunc("main", I64, nil, nil)
			b := NewBuilder(fn.NewBlock("entry"))
			b.Ret(ConstFloat(1))
		}},
		{"use before def", func(m *Module) {
			fn := m.NewFunc("main", Void, nil, nil)
			entry := fn.NewBlock("entry")
			b := NewBuilder(entry)
			x := b.Add(ConstInt(I64, 1), ConstInt(I64, 1))
			b.Ret(nil)
			y := NewInstr(OpAdd, I64, []Value{x, x})
			y.SetName("y")
			entry.InsertBefore(y, x) // y uses x but precedes it
		}},
		{"phi bad incoming", func(m *Module) {
			fn := m.NewFunc("main", Void, nil, nil)
			entry := fn.NewBlock("entry")
			other := fn.NewBlock("other")
			b := NewBuilder(entry)
			b.Br(other)
			b.SetBlock(other)
			phi := b.Phi(I64)
			AddIncoming(phi, ConstInt(I64, 1), other) // not a predecessor
			b.Ret(nil)
		}},
		{"call arity", func(m *Module) {
			callee := m.NewBuiltin("sqrt", F64, F64)
			fn := m.NewFunc("main", Void, nil, nil)
			b := NewBuilder(fn.NewBlock("entry"))
			in := NewInstr(OpCall, F64, nil)
			in.Callee = callee
			in.SetName("r")
			fn.Entry().Append(in)
			b.Ret(nil)
		}},
	}
	for _, c := range cases {
		if err := build(c.f); err == nil {
			t.Errorf("%s: verify accepted invalid module", c.name)
		}
	}
}

func TestDominators(t *testing.T) {
	// Diamond: entry -> a, b -> merge; loop back merge -> a.
	m := NewModule()
	fn := m.NewFunc("main", Void, nil, nil)
	entry := fn.NewBlock("entry")
	a := fn.NewBlock("a")
	bb := fn.NewBlock("b")
	merge := fn.NewBlock("merge")
	exit := fn.NewBlock("exit")

	bld := NewBuilder(entry)
	cond := bld.ICmp(PredLT, ConstInt(I64, 1), ConstInt(I64, 2))
	bld.CondBr(cond, a, bb)
	bld.SetBlock(a)
	bld.Br(merge)
	bld.SetBlock(bb)
	bld.Br(merge)
	bld.SetBlock(merge)
	c2 := bld.ICmp(PredGT, ConstInt(I64, 3), ConstInt(I64, 4))
	bld.CondBr(c2, a, exit)
	bld.SetBlock(exit)
	bld.Ret(nil)

	dom := ComputeDom(fn)
	if dom.IDom(entry) != nil {
		t.Error("entry must have no idom")
	}
	if dom.IDom(merge) != entry {
		t.Errorf("idom(merge) = %v, want entry (a is in a loop)", dom.IDom(merge).Name())
	}
	if dom.IDom(a) != entry || dom.IDom(bb) != entry {
		t.Error("idom of diamond arms must be entry")
	}
	if dom.IDom(exit) != merge {
		t.Error("idom(exit) must be merge")
	}
	if !dom.Dominates(entry, exit) || dom.Dominates(a, exit) {
		t.Error("dominance relation wrong")
	}
	// Dominance frontier: a and b have {merge}; merge has {a} (back edge).
	df := dom.Frontier()
	if len(df[a]) != 1 || df[a][0] != merge {
		t.Errorf("DF(a) = %v", names(df[a]))
	}
	if len(df[merge]) != 1 || df[merge][0] != a {
		t.Errorf("DF(merge) = %v, want [a]", names(df[merge]))
	}

	// The merge->a edge is a retreat edge into a block that does not
	// dominate its tail: no *natural* loop exists in this CFG.
	li := ComputeLoops(fn, dom)
	if len(li.Loops) != 0 {
		t.Fatalf("found %d natural loops in an irreducible CFG, want 0", len(li.Loops))
	}
}

func TestNaturalLoops(t *testing.T) {
	// entry -> header; header -> body | exit; body -> header.
	m := NewModule()
	fn := m.NewFunc("main", Void, nil, nil)
	entry := fn.NewBlock("entry")
	header := fn.NewBlock("header")
	body := fn.NewBlock("body")
	exit := fn.NewBlock("exit")

	bld := NewBuilder(entry)
	bld.Br(header)
	bld.SetBlock(header)
	c := bld.ICmp(PredLT, ConstInt(I64, 0), ConstInt(I64, 1))
	bld.CondBr(c, body, exit)
	bld.SetBlock(body)
	bld.Br(header)
	bld.SetBlock(exit)
	bld.Ret(nil)

	dom := ComputeDom(fn)
	li := ComputeLoops(fn, dom)
	if len(li.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != header {
		t.Errorf("loop header = %s, want header", l.Header.Name())
	}
	if !li.InLoop(header) || !li.InLoop(body) || li.InLoop(entry) || li.InLoop(exit) {
		t.Error("loop membership wrong")
	}
}

func names(bs []*Block) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name())
	}
	return out
}

func TestSplitBlockBefore(t *testing.T) {
	m := NewModule()
	fn := m.NewFunc("main", Void, nil, nil)
	entry := fn.NewBlock("entry")
	next := fn.NewBlock("next")
	bld := NewBuilder(entry)
	x := bld.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	term := bld.Br(next)
	bld.SetBlock(next)
	phi := bld.Phi(I64)
	AddIncoming(phi, x, entry)
	bld.Ret(nil)

	nb := SplitBlockBefore(entry, term)
	if entry.Terminator().Op() != OpBr || entry.Terminator().Targets[0] != nb {
		t.Fatal("entry must branch to the split block")
	}
	if nb.Instrs()[0] != term {
		t.Fatal("terminator must move to the split block")
	}
	if phi.Incoming[0] != nb {
		t.Fatal("phi incoming must be remapped to the split block")
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify after split: %v", err)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	src := `
func @main() void {
entry:
  br %live
dead:
  %x = add i64 1, 2
  br %live
live:
  %p = phi i64 [0, %entry], [%x, %dead]
  ret void
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := m.FuncByName("main")
	if n := RemoveUnreachable(fn); n != 1 {
		t.Fatalf("removed %d blocks, want 1", n)
	}
	if fn.BlockByName("dead") != nil {
		t.Fatal("dead block still present")
	}
	phi := fn.BlockByName("live").Phis()[0]
	if phi.NumOperands() != 1 {
		t.Fatalf("phi has %d incoming after cleanup, want 1", phi.NumOperands())
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestDCE(t *testing.T) {
	src := `
func @main() void {
entry:
  %dead1 = add i64 1, 2
  %dead2 = mul i64 %dead1, 3
  %keep = sdiv i64 10, 2
  ret void
}
`
	m := MustParse(src)
	fn := m.FuncByName("main")
	removed := DCE(fn)
	if removed != 2 {
		t.Fatalf("DCE removed %d, want 2 (sdiv may trap and must stay)", removed)
	}
	if fn.NumInstrs() != 2 { // sdiv + ret
		t.Fatalf("%d instrs left, want 2", fn.NumInstrs())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"garbage",
		"func @f() void {", // unterminated
		"func @f() void {\nentry:\n  frob i64 1, 2\n}",   // unknown op
		"func @f() void {\nentry:\n  ret i64 %nope\n}",   // undefined value
		"func @f() void {\nentry:\n  br %missing\n}",     // undefined block
		"builtin @b(i64 i64",                             // malformed builtin
		"func @f() void {\n  %x = add i64 1, 2\n}",       // instr before label
		"func @f() void {\nentry:\n  %x = add i9 1,2\n}", // bad type
		// Truncated instructions, duplicate names and untyped constants
		// once indexed past their tokens or panicked in the builder.
		"func @f() void {\nentry:\n  ret\n}",
		"func @f() i64 {\nentry:\n  ret i64\n}",
		"builtin @f() i64\nbuiltin @f() void",
		"func @f() void {\nentry:\n  ret void\n}\nfunc @f() void {\nentry:\n  ret void\n}",
		"func @f(i64 %a, i64 %a) void {\nentry:\n  ret void\n}",
		"func @f() void {\nentry:\n  br %entry\nentry:\n  ret void\n}",
		"func @f() void {\nentry:\n  %c = icmp eq i64 1\n  ret void\n}",
		"func @f() void {\nentry:\n  %x = load\n  ret void\n}",
		"func @f() void {\nentry:\n  %x = alloca i64\n  ret void\n}",
		"func @f() void {\nentry:\n  %x = phi i64 [1, %entry\n  ret void\n}",
		"func @g(i64 %a) void {\nentry:\n  ret void\n}\nfunc @f() void {\nentry:\n  call void @g(i64\n  ret void\n}",
		"func @f() void {\nentry:\n  %x = add void 1, 2\n  ret void\n}",
	}
	for _, src := range cases {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse accepted %q", src)
		} else if !strings.HasPrefix(err.Error(), "ir: line ") {
			t.Errorf("Parse(%q) error %q does not name the line", src, err)
		}
	}
}

func TestPrintContainsProtTags(t *testing.T) {
	m := MustParse("func @main() void {\nentry:\n  %x = add i64 1, 2\n  ret void\n}")
	in := m.FuncByName("main").Entry().Instrs()[0]
	in.Prot = ProtDup
	if !strings.Contains(Print(m), ";dup") {
		t.Error("dup tag not printed")
	}
}
