package interp

import (
	"testing"

	"ipas/internal/ir"
)

// secSrc exercises every section shape the runtime must handle: a
// prologue that allocates, a loop nest that stores and accumulates, a
// helper call inside the loop, and an epilogue that emits outputs.
const secSrc = `
builtin @malloc_f64(i64) i64
builtin @out_f64(i64, f64) void
builtin @out_i64(i64, i64) void

func @sq(f64 %x) f64 {
entry:
  %r = fmul f64 %x, %x
  ret f64 %r
}

func @main() void {
entry:
  %n = add i64 6, 0
  %raw = call i64 @malloc_f64(i64 %n)
  %buf = inttoptr i64 %raw to f64*
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i1, %loop]
  %acc = phi f64 [0.0, %entry], [%acc1, %loop]
  %xf = sitofp i64 %i to f64
  %s = call f64 @sq(f64 %xf)
  %p = gep f64* %buf, %i
  store f64 %s, %p
  %acc1 = fadd f64 %acc, %s
  %i1 = add i64 %i, 1
  %c = icmp lt i64 %i1, %n
  condbr %c, %loop, %exit
exit:
  %half = fmul f64 %acc1, 0.5
  call void @out_f64(i64 0, f64 %acc1)
  call void @out_f64(i64 1, f64 %half)
  call void @out_i64(i64 0, i64 %i1)
  ret void
}
`

// compileSectioned parses, verifies and compiles a module.
func compileSectioned(t *testing.T, src string) *Program {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	m.AssignSiteIDs()
	p, err := Compile(m, refInjectable)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// TestSectionCaptureMatchesPlainRun checks that arming section capture
// perturbs nothing observable and that the per-section populations it
// records partition the global injectable population exactly.
func TestSectionCaptureMatchesPlainRun(t *testing.T) {
	p := compileSectioned(t, secSrc)

	plain := Run(p, Config{CountSites: true})
	if plain.Trap != TrapNone {
		t.Fatalf("plain run trapped: %v (%s)", plain.Trap, plain.TrapMsg)
	}
	cap := Run(p, Config{Sections: &SectionConfig{}})
	if cap.Trap != TrapNone {
		t.Fatalf("capture run trapped: %v (%s)", cap.Trap, cap.TrapMsg)
	}
	if cap.Sections == nil {
		t.Fatal("capture run recorded no SectionTrace")
	}
	if len(cap.OutputF) != len(plain.OutputF) {
		t.Fatalf("output lengths differ: %d vs %d", len(cap.OutputF), len(plain.OutputF))
	}
	for i := range plain.OutputF {
		if cap.OutputF[i] != plain.OutputF[i] {
			t.Errorf("OutputF[%d] = %v, plain %v", i, cap.OutputF[i], plain.OutputF[i])
		}
	}
	if cap.TotalDyn != plain.TotalDyn {
		t.Errorf("dynamic counts differ: %d vs %d", cap.TotalDyn, plain.TotalDyn)
	}
	var popSum int64
	for _, n := range cap.Sections.Pops {
		popSum += n
	}
	if popSum != plain.Injectable[0] {
		t.Errorf("section populations sum to %d, global injectable population is %d",
			popSum, plain.Injectable[0])
	}
	for s, n := range cap.Sections.Pops {
		if n > 0 && len(cap.Sections.Exits[s]) == 0 {
			t.Errorf("section %d executed %d injectable instances but recorded no exits", s, n)
		}
	}
}

// TestSectionTargetedInjectionEquivalence proves the (section, local
// index) trial space is exactly the global index space: running every
// targeted trial reproduces, instance for instance, what global-index
// trials hit (site, dynamic position, and effect). Every targeted trial
// resumed from section-tracked snapshots equals its run from zero.
func TestSectionTargetedInjectionEquivalence(t *testing.T) {
	p := compileSectioned(t, secSrc)
	golden := Run(p, Config{Sections: &SectionConfig{}})
	if golden.Trap != TrapNone {
		t.Fatalf("golden trapped: %v", golden.Trap)
	}
	snaps := captureSectioned(t, p, golden)
	resumed := 0
	pop := int64(0)
	for _, n := range golden.Sections.Pops {
		pop += n
	}

	type hit struct {
		site int
		at   int64
	}
	count := map[hit]int{}
	// Global trials, one per instance (bit 0, no section config).
	for idx := int64(0); idx < pop; idx++ {
		res := Run(p, Config{Fault: &FaultPlan{Index: idx, Bit: 0}, MaxInstrs: 1 << 20})
		if !res.Injected {
			t.Fatalf("global trial %d did not inject", idx)
		}
		count[hit{res.InjectedSite, res.InjectedAt}]++
	}
	// Targeted trials, one per (section, local ordinal).
	for sec, n := range golden.Sections.Pops {
		for idx := int64(0); idx < n; idx++ {
			cfg := Config{
				Fault:     &FaultPlan{Index: idx, Bit: 0, Section: int32(sec)},
				MaxInstrs: 1 << 20,
				Sections:  &SectionConfig{},
			}
			res := Run(p, cfg)
			if !res.Injected {
				t.Fatalf("trial (sec %d, idx %d) did not inject", sec, idx)
			}
			if resumeLeg(t, "targeted", p, snaps, cfg, nil, res) {
				resumed++
			}
			h := hit{res.InjectedSite, res.InjectedAt}
			count[h]--
			if count[h] < 0 {
				t.Fatalf("targeted trial (sec %d, idx %d) hit %+v, never hit globally", sec, idx, h)
			}
		}
	}
	for h, n := range count {
		if n != 0 {
			t.Errorf("instance %+v hit %d more times globally than targeted", h, n)
		}
	}
	if resumed == 0 {
		t.Error("no targeted trial started from a snapshot")
	}
}

// TestSectionEarlyMaskedSoundness runs every (section, ordinal, bit)
// trial twice — with and without the golden trace armed — and checks
// that whenever the armed run declares EarlyMasked, the full run really
// was masked (identical outputs), i.e. the boundary digest never
// promotes a corrupting trial to Masked. Both runs, resumed from
// section-tracked snapshots, equal their runs from zero: the resumed
// digest starts from the snapshot's, so early exits fire exactly as
// from zero.
func TestSectionEarlyMaskedSoundness(t *testing.T) {
	p := compileSectioned(t, secSrc)
	golden := Run(p, Config{Sections: &SectionConfig{}})
	if golden.Trap != TrapNone {
		t.Fatalf("golden trapped: %v", golden.Trap)
	}
	snaps := captureSectioned(t, p, golden)
	resumedEarly := 0

	sameOutputs := func(r *Result) bool {
		if len(r.OutputF) != len(golden.OutputF) || len(r.OutputI) != len(golden.OutputI) {
			return false
		}
		for i := range golden.OutputF {
			if r.OutputF[i] != golden.OutputF[i] {
				return false
			}
		}
		for i := range golden.OutputI {
			if r.OutputI[i] != golden.OutputI[i] {
				return false
			}
		}
		return true
	}

	early, total := 0, 0
	for sec, n := range golden.Sections.Pops {
		for idx := int64(0); idx < n; idx++ {
			for _, bit := range []int{0, 1, 17, 52, 63} {
				total++
				plan := FaultPlan{Index: idx, Bit: bit, Section: int32(sec)}
				armedCfg := Config{
					Fault:     &plan,
					MaxInstrs: 1 << 20,
					Sections:  &SectionConfig{Golden: golden.Sections},
				}
				armed := Run(p, armedCfg)
				resumed := resumeLeg(t, "armed", p, snaps, armedCfg, nil, armed)
				if !armed.EarlyMasked {
					continue
				}
				early++
				if resumed {
					resumedEarly++
				}
				fullCfg := Config{
					Fault:     &plan,
					MaxInstrs: 1 << 20,
					Sections:  &SectionConfig{},
				}
				full := Run(p, fullCfg)
				resumeLeg(t, "full", p, snaps, fullCfg, nil, full)
				if full.Trap != TrapNone || !sameOutputs(full) {
					t.Fatalf("trial (sec %d, idx %d, bit %d) early-masked but full run differs (trap %v)",
						sec, idx, bit, full.Trap)
				}
			}
		}
	}
	if early == 0 {
		t.Errorf("no trial early-masked out of %d — the fast path never fires", total)
	}
	if resumedEarly == 0 {
		t.Error("no early-masked trial started from a snapshot")
	}
	t.Logf("early-masked %d of %d trials, %d of them resumed", early, total, resumedEarly)
}
