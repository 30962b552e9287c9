package interp

import (
	"context"
	"testing"

	"ipas/internal/ir"
	"ipas/internal/lang"
)

// TestCaptureRunMatchesGolden checks that a capture run is a golden
// run: its final counters and outputs equal the fast loop's — and, when
// it tracks sections, its SectionTrace equals the sectioned golden
// run's — and its snapshots are evenly placed, ascending and rooted at
// @main, a sectioned one's per-section counts summing to its
// injectable count.
func TestCaptureRunMatchesGolden(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p, err := Compile(diffModule(t, seed), refInjectable)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			golden Config
			cfg    Config
		}{
			{"plain", Config{}, Config{}},
			{"sectioned", Config{Sections: &SectionConfig{}}, Config{Sections: &SectionConfig{}}},
		} {
			golden := Run(p, tc.golden)
			snaps, res := captureRun(context.Background(), p, tc.cfg, golden.TotalDyn)
			diffCompare(t, tc.name+"-capture", golden, res)
			sameRun(t, tc.name+"-capture", golden, res)
			if snaps.Len() == 0 || snaps.Len() > maxSnapshots {
				t.Fatalf("seed %d %s: %d snapshots of a %d-instruction run", seed, tc.name, snaps.Len(), golden.TotalDyn)
			}
			every := golden.TotalDyn / (maxSnapshots + 1)
			for i, s := range snaps.snaps {
				if s.executed < int64(i+1)*every || s.executed >= golden.TotalDyn {
					t.Fatalf("seed %d %s: snapshot %d at %d, spacing %d", seed, tc.name, i, s.executed, every)
				}
				if i > 0 && (s.executed <= snaps.snaps[i-1].executed || s.injectable < snaps.snaps[i-1].injectable) {
					t.Fatalf("seed %d %s: snapshot %d not after its predecessor", seed, tc.name, i)
				}
				if s.frames[0].fn != p.main {
					t.Fatalf("seed %d %s: snapshot %d rooted at @%s", seed, tc.name, i, s.frames[0].fn.fn.Name())
				}
				var sum int64
				for _, n := range s.pops {
					sum += n
				}
				if (s.pops != nil) != (tc.name == "sectioned") || (s.pops != nil && sum != s.injectable) {
					t.Fatalf("seed %d %s: snapshot %d section counts %v, injectable %d", seed, tc.name, i, s.pops, s.injectable)
				}
			}
		}
	}
}

// TestResumeCallChain pins the two FuzzDifferential corpus entries of
// program -400 that resume from a snapshot taken two frames deep, in a
// helper called from @main's loop: one flips an instance inside the
// helper, the other the helper's return value — the result of the call
// @main still had pending when the snapshot was taken.
func TestResumeCallChain(t *testing.T) {
	m := diffModule(t, -400)
	p, err := Compile(m, refInjectable)
	if err != nil {
		t.Fatal(err)
	}
	golden := Run(p, Config{})
	snaps := captureFor(t, p, golden)
	for _, tc := range []struct {
		index   int64
		pending bool
	}{{91, false}, {105, true}} {
		cfg := Config{Fault: &FaultPlan{Index: tc.index, Bit: 3}, MaxInstrs: golden.MaxRankDyn*10 + 1_000_000}
		s := snaps.from(p, cfg.withDefaults())
		if s == nil || len(s.frames) != 2 || s.frames[0].fn != p.main {
			t.Fatalf("index %d: not resumed from a helper called by @main", tc.index)
		}
		zero := Run(p, cfg)
		call := &s.frames[0].fn.code[s.frames[0].pc]
		if call.op != ir.OpCall || (zero.InjectedSite == int(call.siteID)) != tc.pending {
			t.Fatalf("index %d: flip at site %d, pending call at site %d (%v)", tc.index, zero.InjectedSite, call.siteID, call.op)
		}
		resumeLeg(t, "call-chain", p, snaps, cfg, refRun(m, cfg, refInjectable), zero)
	}
}

// TestResumeRecursiveSection resumes section-targeted trials inside a
// recursive function whose loop section is open in every frame of the
// recursion: at such a snapshot an outer frame's open ordinal is older
// than the section's latest one (secOrd[cur]-1), so each frame must
// take its cursor from the snapshot rather than from the counters, and
// instances opened after the resume must continue the snapshot's
// ordinals. Every trial also checks that it resumes from the last
// snapshot counted in its section before its flip.
func TestResumeRecursiveSection(t *testing.T) {
	p := compileInjectable(t, `
func rec(n int, acc int) int {
	for (var i int = 0; i < 40; i = i + 1) {
		acc = (acc * 31 + i) % 65521;
		if (i == 20 && n > 0) { acc = rec(n - 1, acc); }
	}
	return acc;
}
func main() {
	out_i64(0, rec(3, 1));
}
`)
	golden := Run(p, Config{Sections: &SectionConfig{}})
	snaps := captureSectioned(t, p, golden)
	// nested reports whether snapshot s has a frame below the innermost
	// whose section is the innermost's, open with an older ordinal.
	nested := func(s *snapshot) bool {
		in := s.frames[len(s.frames)-1].sec
		for _, f := range s.frames[:len(s.frames)-1] {
			if f.sec.tab != nil && f.sec.cur == in.cur && f.sec.ord != s.secOrd[in.cur]-1 {
				return true
			}
		}
		return false
	}
	deep := 0
	for sec, n := range golden.Sections.Pops {
		for idx := int64(0); idx < n; idx++ {
			var want *snapshot
			for i := range snaps.snaps {
				if snaps.snaps[i].pops[sec] <= idx {
					want = &snaps.snaps[i]
				}
			}
			for _, bit := range []int{0, 9, 40} {
				for _, gold := range []*SectionTrace{nil, golden.Sections} {
					cfg := Config{
						Fault:     &FaultPlan{Index: idx, Bit: bit, Section: int32(sec)},
						MaxInstrs: golden.TotalDyn*10 + 1_000_000,
						Sections:  &SectionConfig{Golden: gold},
					}
					resumeLeg(t, "recursive", p, snaps, cfg, nil, Run(p, cfg))
					s := snaps.from(p, cfg.withDefaults())
					if s != want {
						t.Fatalf("section %d index %d: resumed from another snapshot than the last one before it", sec, idx)
					}
					if s != nil && nested(s) {
						deep++
					}
				}
			}
		}
	}
	if deep == 0 {
		t.Fatal("no trial resumed with its section open in an outer frame")
	}
}

// compileInjectable compiles a sci source with the fault model's
// injectable sites.
func compileInjectable(t *testing.T, src string) *Program {
	t.Helper()
	m, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, refInjectable)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// resumeAll resumes n plans spread over the whole injectable
// population and compares each with its run from instruction zero.
func resumeAll(t *testing.T, p *Program, snaps *Snapshots, golden *Result, n int64) {
	t.Helper()
	pop := golden.Injectable[0]
	for k := int64(0); k < n; k++ {
		cfg := Config{Fault: &FaultPlan{Index: k * pop / n, Bit: int(k)}, MaxInstrs: golden.TotalDyn*10 + 1_000_000}
		zero := Run(p, cfg)
		cfg.Resume = snaps
		got := Run(p, cfg)
		diffCompare(t, "resumed-vs-zero", zero, got)
		sameRun(t, "resumed-vs-zero", zero, got)
	}
}

// TestCaptureSkipsMessageInFlight checks that no snapshot holds a
// message a single rank sent to itself and has not received yet: the
// mailbox is not part of a snapshot, so resuming inside that window
// would deadlock where the run from zero does not.
func TestCaptureSkipsMessageInFlight(t *testing.T) {
	p := compileInjectable(t, `
func main() {
	var acc int = 1;
	for (var r int = 0; r < 4; r = r + 1) {
		mpi_send_i64(0, 7, acc);
		for (var j int = 0; j < 300; j = j + 1) { acc = (acc * 31 + j) % 65521; }
		acc = acc + mpi_recv_i64(0, 7);
		for (var j int = 0; j < 100; j = j + 1) { acc = (acc * 17 + j) % 65521; }
	}
	out_i64(0, acc);
}
`)
	golden := Run(p, Config{})
	snaps := CaptureSnapshots(context.Background(), p, Config{}, golden.TotalDyn)
	if snaps.Len() == 0 || snaps.Len() == maxSnapshots {
		t.Fatalf("%d snapshots: expected some, with the in-flight windows skipped", snaps.Len())
	}
	resumeAll(t, p, snaps, golden, 64)
}

// TestCaptureThinsUnderByteCap runs a program whose dirty heap makes 32
// snapshots exceed maxSnapshotBytes: the capture keeps every other one
// until the rest fit, and they still resume exactly.
func TestCaptureThinsUnderByteCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a few MiB per snapshot")
	}
	p := compileInjectable(t, `
func main() {
	var n int = 393216;
	var a *float = malloc_f64(n);
	for (var i int = 0; i < n; i = i + 1) { a[i] = float(i); }
	var s float = 0.0;
	for (var r int = 0; r < 12; r = r + 1) {
		for (var i int = 0; i < n; i = i + 64) { s = s + a[i] * 0.5; }
		for (var i int = 0; i < 40000; i = i + 1) { s = s * 0.999 + 1.0; }
	}
	out_f64(0, s);
}
`)
	golden := Run(p, Config{})
	snaps := CaptureSnapshots(context.Background(), p, Config{}, golden.TotalDyn)
	var total int64
	for _, s := range snaps.snaps {
		total += s.bytes()
	}
	if snaps.Len() == 0 || snaps.Len() >= maxSnapshots/2+1 || total > maxSnapshotBytes {
		t.Fatalf("%d snapshots holding %d bytes (cap %d)", snaps.Len(), total, maxSnapshotBytes)
	}
	resumeAll(t, p, snaps, golden, 6)
}

// TestCaptureRefusesUnresumable checks that configurations a snapshot
// cannot describe never capture, and that Resume is ignored for runs
// the snapshots cannot serve: more ranks, site counting, another
// address space or program, no plan, a plain plan on section-tracked
// snapshots and the reverse, and a plan section outside the partition.
func TestCaptureRefusesUnresumable(t *testing.T) {
	p, err := Compile(diffModule(t, 3), refInjectable)
	if err != nil {
		t.Fatal(err)
	}
	golden := Run(p, Config{})
	for name, cfg := range map[string]Config{
		"ranks": {Ranks: 2},
		"sites": {CountSites: true},
	} {
		if snaps, res := captureRun(context.Background(), p, cfg, golden.TotalDyn); snaps != nil || res != nil {
			t.Errorf("%s: captured", name)
		}
	}
	snaps := captureFor(t, p, golden)
	secSnaps := CaptureSnapshots(context.Background(), p, Config{Sections: &SectionConfig{}}, golden.TotalDyn)
	other, err := Compile(diffModule(t, 3), refInjectable)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Index: golden.Injectable[0] - 1}
	// The last instance of the most populated section: every snapshot
	// taken in or after it precedes the plan.
	trace := Run(p, Config{Sections: &SectionConfig{}}).Sections
	var sec int32
	for s, n := range trace.Pops {
		if n > trace.Pops[sec] {
			sec = int32(s)
		}
	}
	secPlan := &FaultPlan{Index: trace.Pops[sec] - 1, Section: sec}
	sectioned := &SectionConfig{Golden: trace}
	if snaps.from(p, Config{Fault: plan}.withDefaults()) == nil ||
		secSnaps.from(p, Config{Fault: secPlan, Sections: sectioned}.withDefaults()) == nil {
		t.Fatal("snapshots do not serve the plans they were captured for")
	}
	for name, tc := range map[string]struct {
		snaps *Snapshots
		cfg   Config
	}{
		"ranks":                  {snaps, Config{Ranks: 2, Fault: plan}},
		"sites":                  {snaps, Config{CountSites: true, Fault: plan}},
		"heap":                   {snaps, Config{HeapBytes: 1 << 20, Fault: plan}},
		"program":                {snaps, Config{Fault: plan}},
		"golden":                 {snaps, Config{}},
		"sectioned-serves-plain": {secSnaps, Config{Fault: plan}},
		"plain-serves-sectioned": {snaps, Config{Fault: secPlan, Sections: sectioned}},
		"section-out-of-range":   {secSnaps, Config{Fault: &FaultPlan{Section: int32(len(trace.Pops))}, Sections: sectioned}},
		"section-negative":       {secSnaps, Config{Fault: &FaultPlan{Section: -1}, Sections: sectioned}},
	} {
		prog := p
		if name == "program" {
			prog = other
		}
		if tc.snaps.from(prog, tc.cfg.withDefaults()) != nil {
			t.Errorf("%s: snapshot served an unresumable run", name)
		}
	}
}

// TestResumeStackResidentLocals resumes random programs compiled
// without mem2reg, where every local lives in a stack slot: the stack
// span and each frame's saved stack pointer then carry live state
// across the snapshot, which heap-only programs never exercise.
func TestResumeStackResidentLocals(t *testing.T) {
	resumed := 0
	for seed := int64(1); seed <= 6; seed++ {
		m, err := lang.CompileNoOpt(lang.RandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := Compile(m, refInjectable)
		if err != nil {
			t.Fatal(err)
		}
		golden := Run(p, Config{})
		snaps := captureFor(t, p, golden)
		pop := golden.Injectable[0]
		for k := int64(0); k < 12; k++ {
			cfg := Config{Fault: &FaultPlan{Index: (2*k + 1) * pop / 24, Bit: int(k * 5)}, MaxInstrs: golden.TotalDyn*10 + 1_000_000}
			ref, zero := refRun(m, cfg, refInjectable), Run(p, cfg)
			diffCompare(t, "stack-armed", ref, zero)
			if resumeLeg(t, "stack-armed", p, snaps, cfg, ref, zero) {
				resumed++
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no run started from a snapshot")
	}
}

// TestResumeKeepsHangBudget checks the budget a resumed run inherits:
// with the budget one short of the golden length every run traps
// after exactly as many instructions as from zero, and a budget of
// half the golden run must not resume from a snapshot past it.
func TestResumeKeepsHangBudget(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := diffModule(t, seed)
		p, err := Compile(m, refInjectable)
		if err != nil {
			t.Fatal(err)
		}
		golden := Run(p, Config{})
		snaps := captureFor(t, p, golden)
		pop := golden.Injectable[0]
		for _, budget := range []int64{golden.TotalDyn - 1, golden.TotalDyn / 2} {
			for k := int64(0); k < 8; k++ {
				cfg := Config{Fault: &FaultPlan{Index: (2*k + 1) * pop / 16, Bit: int(k)}, MaxInstrs: budget}
				ref, zero := refRun(m, cfg, refInjectable), Run(p, cfg)
				diffCompare(t, "budget-armed", ref, zero)
				resumeLeg(t, "budget-armed", p, snaps, cfg, ref, zero)
			}
		}
	}
}
