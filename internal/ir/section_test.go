package ir

import "testing"

// loopySrc has the canonical shape sectioning must handle: a prologue,
// an outer loop with a nested inner loop, and an epilogue.
const loopySrc = `
func @main() i64 {
entry:
  %n = add i64 8, 0
  br %outer
outer:
  %i = phi i64 [0, %entry], [%i1, %outerlatch]
  br %inner
inner:
  %j = phi i64 [0, %outer], [%j1, %inner]
  %j1 = add i64 %j, 1
  %jc = icmp lt i64 %j1, %n
  condbr %jc, %inner, %outerlatch
outerlatch:
  %i1 = add i64 %i, 1
  %ic = icmp lt i64 %i1, %n
  condbr %ic, %outer, %exit
exit:
  %r = mul i64 %i1, 2
  ret i64 %r
}
`

func TestComputeSectionsPartition(t *testing.T) {
	m := MustParse(loopySrc)
	fn := m.FuncByName("main")
	secs := ComputeSections(fn)
	if len(secs) != 3 {
		t.Fatalf("got %d sections, want 3 (prologue, loop nest, epilogue):\n%v", len(secs), secs)
	}
	if secs[0].Loop || secs[0].Header.Name() != "entry" {
		t.Errorf("section 0 = %v, want straight-line run at entry", secs[0])
	}
	if !secs[1].Loop || secs[1].Header.Name() != "outer" {
		t.Errorf("section 1 = %v, want loop nest headed at outer", secs[1])
	}
	if len(secs[1].Blocks) != 3 {
		t.Errorf("loop section has %d blocks, want 3 (outer, inner, outerlatch)", len(secs[1].Blocks))
	}
	if secs[2].Loop || secs[2].Header.Name() != "exit" {
		t.Errorf("section 2 = %v, want straight-line run at exit", secs[2])
	}
	// Partition: every block in exactly one section.
	seen := map[*Block]int{}
	for _, s := range secs {
		for _, b := range s.Blocks {
			seen[b]++
		}
	}
	for _, b := range fn.Blocks() {
		if seen[b] != 1 {
			t.Errorf("block %s appears in %d sections, want 1", b.Name(), seen[b])
		}
	}
}

func TestSectionFingerprintStability(t *testing.T) {
	a := ComputeSections(MustParse(loopySrc).FuncByName("main"))
	b := ComputeSections(MustParse(loopySrc).FuncByName("main"))
	for i := range a {
		if a[i].Fingerprint != b[i].Fingerprint {
			t.Errorf("section %d fingerprint not reproducible", i)
		}
	}

	// An edit in the epilogue must change only the epilogue's
	// fingerprint; the prologue and the loop nest keep theirs.
	edited := MustParse(loopySrc)
	exit := edited.FuncByName("main").BlockByName("exit")
	mul := exit.Instrs()[0]
	if mul.Op() != OpMul {
		t.Fatalf("expected mul first in exit, got %v", mul.Op())
	}
	mul.SetOperand(1, ConstInt(I64, 3))
	c := ComputeSections(edited.FuncByName("main"))
	if c[0].Fingerprint != a[0].Fingerprint || c[1].Fingerprint != a[1].Fingerprint {
		t.Error("edit in epilogue changed an unrelated section's fingerprint")
	}
	if c[2].Fingerprint == a[2].Fingerprint {
		t.Error("edit in epilogue did not change its own fingerprint")
	}
}

func TestModuleSectionsSiteIndex(t *testing.T) {
	m := MustParse(loopySrc)
	m.AssignSiteIDs()
	ms := ModuleSections(m)
	if len(ms.All) != 3 {
		t.Fatalf("got %d sections, want 3", len(ms.All))
	}
	// Every site belongs to exactly one section's Sites.
	owner := make([]int, m.NumSites())
	for i := range owner {
		owner[i] = -1
	}
	for sec := range ms.All {
		for _, site := range ms.Sites(sec) {
			if site < 0 || site >= len(owner) {
				t.Fatalf("section %d lists site %d outside [0,%d)", sec, site, len(owner))
			}
			if owner[site] >= 0 {
				t.Errorf("site %d in Sites(%d) and Sites(%d)", site, owner[site], sec)
			}
			owner[site] = sec
		}
	}
	for site, sec := range owner {
		if sec < 0 {
			t.Errorf("site %d not assigned to a section", site)
		}
	}
	// Per-section site lists must be ascending, as Sites documents.
	for sec := range ms.All {
		sites := ms.Sites(sec)
		for i := 1; i < len(sites); i++ {
			if sites[i] <= sites[i-1] {
				t.Errorf("section %d sites not ascending: %v", sec, sites)
			}
		}
	}
	for sec, s := range ModuleSections(m).All {
		if s.Fingerprint == "" || s.Fingerprint != ms.All[sec].Fingerprint {
			t.Errorf("section %d fingerprint not reproducible", sec)
		}
	}
}

func TestSectionsIdenticalFunctionsDistinctFingerprints(t *testing.T) {
	src := `
func @a() i64 {
entry:
  %x = add i64 1, 2
  ret i64 %x
}

func @b() i64 {
entry:
  %x = add i64 1, 2
  ret i64 %x
}
`
	m := MustParse(src)
	m.AssignSiteIDs()
	ms := ModuleSections(m)
	if len(ms.All) != 2 {
		t.Fatalf("got %d sections, want 2", len(ms.All))
	}
	if ms.All[0].Fingerprint == ms.All[1].Fingerprint {
		t.Error("textually identical sections of different functions must not share a fingerprint")
	}
}
