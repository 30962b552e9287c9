package lang

import (
	"math"
	"testing"

	"ipas/internal/interp"
	"ipas/internal/ir"
)

const randProgSeeds = 40

// execModule runs @main and fails the test on traps.
func execModule(t *testing.T, m *ir.Module, what string, seed int64) *interp.Result {
	t.Helper()
	p, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatalf("seed %d: %s: compile: %v", seed, what, err)
	}
	res := interp.Run(p, interp.Config{MaxInstrs: 200_000_000})
	if res.Trap != interp.TrapNone {
		t.Fatalf("seed %d: %s: trap %v (%s)", seed, what, res.Trap, res.TrapMsg)
	}
	return res
}

// sameOutputs compares outputs bitwise (NaN-safe).
func sameOutputs(a, b *interp.Result) bool {
	if len(a.OutputF) != len(b.OutputF) || len(a.OutputI) != len(b.OutputI) {
		return false
	}
	for i := range a.OutputF {
		if math.Float64bits(a.OutputF[i]) != math.Float64bits(b.OutputF[i]) {
			return false
		}
	}
	for i := range a.OutputI {
		if a.OutputI[i] != b.OutputI[i] {
			return false
		}
	}
	return true
}

// TestRandomProgramsCompileAndRun: every generated program must
// compile, verify, and terminate cleanly.
func TestRandomProgramsCompileAndRun(t *testing.T) {
	for seed := int64(1); seed <= randProgSeeds; seed++ {
		src := RandomProgram(seed)
		m, err := Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
		res := execModule(t, m, "optimized", seed)
		if len(res.OutputF) == 0 && len(res.OutputI) == 0 {
			t.Fatalf("seed %d: program produced no outputs", seed)
		}
	}
}

// TestMem2RegPreservesSemantics: optimized and unoptimized builds of
// the same random program must produce bitwise-identical outputs.
func TestMem2RegPreservesSemantics(t *testing.T) {
	for seed := int64(1); seed <= randProgSeeds; seed++ {
		src := RandomProgram(seed)
		opt, err := Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw, err := CompileNoOpt(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r1 := execModule(t, opt, "optimized", seed)
		r2 := execModule(t, raw, "unoptimized", seed)
		if !sameOutputs(r1, r2) {
			t.Fatalf("seed %d: mem2reg/DCE changed program behaviour", seed)
		}
		if r2.TotalDyn < r1.TotalDyn {
			t.Fatalf("seed %d: unoptimized build executed fewer instructions (%d < %d)",
				seed, r2.TotalDyn, r1.TotalDyn)
		}
	}
}

// TestRandomProgramsPrintParseRoundtrip: the IR text format must
// round-trip random modules exactly.
func TestRandomProgramsPrintParseRoundtrip(t *testing.T) {
	for seed := int64(1); seed <= randProgSeeds; seed++ {
		m, err := Compile(RandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		text := ir.Print(m)
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		text2 := ir.Print(m2)
		if text != text2 {
			t.Fatalf("seed %d: print/parse/print not a fixpoint", seed)
		}
		m2.AssignSiteIDs()
		r1 := execModule(t, m, "original", seed)
		r2 := execModule(t, m2, "reparsed", seed)
		if !sameOutputs(r1, r2) || r1.TotalDyn != r2.TotalDyn {
			t.Fatalf("seed %d: reparsed module behaves differently", seed)
		}
	}
}

// TestInterpreterDeterminism: two runs of the same program are
// bitwise identical in outputs and instruction counts.
func TestInterpreterDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		m, err := Compile(RandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r1 := execModule(t, m, "run1", seed)
		r2 := execModule(t, m, "run2", seed)
		if !sameOutputs(r1, r2) || r1.TotalDyn != r2.TotalDyn {
			t.Fatalf("seed %d: nondeterministic execution", seed)
		}
	}
}

// TestCloneModulePreservesRandomPrograms: a deep clone prints and
// behaves identically, and mutating the clone leaves the original
// intact.
func TestCloneModulePreservesRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		m, err := Compile(RandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clone := ir.CloneModule(m)
		if ir.Print(m) != ir.Print(clone) {
			t.Fatalf("seed %d: clone prints differently", seed)
		}
		r1 := execModule(t, m, "orig", seed)
		r2 := execModule(t, clone, "clone", seed)
		if !sameOutputs(r1, r2) {
			t.Fatalf("seed %d: clone behaves differently", seed)
		}
	}
}
