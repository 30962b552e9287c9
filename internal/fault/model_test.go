package fault

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ipas/internal/interp"
)

// TestParseModelRoundTrip pins the wire names: every accepted name
// resolves to a model whose Name round-trips, and malformed names are
// refused (the same ParseModel guards CLI flags, campaign specs and
// journal forward-compat, so the name grammar is load-bearing).
func TestParseModelRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "single-bit"},
		{"single-bit", "single-bit"},
		{"burst-1", "burst-1"},
		{"burst-3", "burst-3"},
		{"burst-64", "burst-64"},
		{"random-1", "random-1"},
		{"random-3", "random-3"},
		{"correlated", "correlated"},
		{"sticky", "sticky"},
	} {
		m, err := ParseModel(tc.in)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", tc.in, err)
		}
		if m.Name() != tc.want {
			t.Errorf("ParseModel(%q).Name() = %q, want %q", tc.in, m.Name(), tc.want)
		}
		if !KnownModel(tc.in) {
			t.Errorf("KnownModel(%q) = false", tc.in)
		}
	}
	for _, bad := range []string{"burst-0", "burst-65", "burst-", "burst-x", "random-0", "random--1", "flip", "BURST-3", "future-model-v9"} {
		if _, err := ParseModel(bad); err == nil {
			t.Errorf("ParseModel(%q) accepted a malformed name", bad)
		}
		if KnownModel(bad) {
			t.Errorf("KnownModel(%q) = true", bad)
		}
	}
}

// TestModelNameCanonical pins the wire canonicalization that keeps
// pre-model journals and content-hashed campaign IDs stable: the
// default model — nil or SingleBit — serializes as the empty string.
func TestModelNameCanonical(t *testing.T) {
	if got := ModelName(nil); got != "" {
		t.Errorf("ModelName(nil) = %q, want \"\"", got)
	}
	if got := ModelName(SingleBit); got != "" {
		t.Errorf("ModelName(SingleBit) = %q, want \"\"", got)
	}
	if got := ModelName(Burst(3)); got != "burst-3" {
		t.Errorf("ModelName(Burst(3)) = %q, want \"burst-3\"", got)
	}
}

// TestDefaultModelPlansMatchLegacy: a campaign with no model and one
// with the explicit single-bit model must draw identical plan
// sequences (the model's only draw is the rng.Intn(64) the engine made
// before models existed), and both must write the pre-model journal
// header (Model == "") — the properties that make old journals resume
// cleanly under new builds.
func TestDefaultModelPlansMatchLegacy(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 25

	prepare := func(m ErrorModel) *Prepared {
		c := &Campaign{Prog: p, Verify: verify, Seed: 17, Model: m}
		prep, err := c.Prepare(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	implicit, explicit := prepare(nil), prepare(SingleBit)
	ip, ep := implicit.Plans(n), explicit.Plans(n)
	for i := range ip {
		if ip[i] != ep[i] {
			t.Fatalf("plan %d differs between nil and explicit single-bit model: %+v vs %+v", i, ip[i], ep[i])
		}
		if ip[i].Mask != 0 || ip[i].Correlated || ip[i].Sticky {
			t.Fatalf("single-bit plan %d carries model extras: %+v", i, ip[i])
		}
	}
	if meta := implicit.Meta(n); meta.Model != "" {
		t.Fatalf("default-model journal header carries model %q, want \"\"", meta.Model)
	}
}

// TestModelDrawIsStreamPure: every built-in model must be a pure
// function of the rng stream — the determinism contract sharding,
// resume and remote dispatch all lean on.
func TestModelDrawIsStreamPure(t *testing.T) {
	for _, m := range BuiltinModels() {
		for seed := int64(0); seed < 20; seed++ {
			var a, b interp.FaultPlan
			m.Draw(rand.New(rand.NewSource(seed)), &a)
			m.Draw(rand.New(rand.NewSource(seed)), &b)
			if a != b {
				t.Fatalf("%s: Draw is not a pure function of the stream (seed %d): %+v vs %+v", m.Name(), seed, a, b)
			}
		}
	}
}

// TestModelWorkerInvariance extends the worker-count invariance suite
// to every built-in model: trial results must be bit-identical with 1,
// 4 and GOMAXPROCS workers.
func TestModelWorkerInvariance(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 40
	for _, model := range BuiltinModels() {
		t.Run(model.Name(), func(t *testing.T) {
			run := func(workers int) *CampaignResult {
				c := &Campaign{Prog: p, Verify: verify, Seed: 55, Model: model, Workers: workers}
				res, err := c.Run(n)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(1)
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				got := run(w)
				for i := range ref.Trials {
					if got.Trials[i] != ref.Trials[i] {
						t.Fatalf("trial %d differs between 1 and %d workers: %+v vs %+v",
							i, w, got.Trials[i], ref.Trials[i])
					}
				}
			}
		})
	}
}

// TestModelCancelThenResumeBitIdentical extends the cancel/resume
// invariance suite to every built-in model: a campaign cancelled
// mid-run and resumed from its journal must be bit-identical to an
// uninterrupted one, and the journal header must carry the model name
// so a resume under a different model is refused.
func TestModelCancelThenResumeBitIdentical(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 30
	for _, model := range BuiltinModels() {
		t.Run(model.Name(), func(t *testing.T) {
			ref := &Campaign{Prog: p, Verify: verify, Seed: 21, Model: model}
			refRes, err := ref.Run(n)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "trials.jsonl")
			j1, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c1 := &Campaign{
				Prog: p, Verify: verify, Seed: 21, Model: model, Workers: 2, Journal: j1,
				Progress: func(done, total, failed, deadlocked int) {
					if done >= 8 {
						cancel()
					}
				},
			}
			if _, err := c1.RunContext(ctx, n); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
			}
			if err := j1.Close(); err != nil {
				t.Fatal(err)
			}

			// Resuming under a *different* model must be refused: the
			// journal's trials were drawn from another plan space.
			other := Sticky
			if model.Name() == Sticky.Name() {
				other = Burst(3)
			}
			jx, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			cx := &Campaign{Prog: p, Verify: verify, Seed: 21, Model: other, Journal: jx}
			if _, err := cx.RunContext(context.Background(), n); !errors.Is(err, ErrCampaignMismatch) {
				t.Fatalf("resume under model %s of a %s journal: err=%v, want ErrCampaignMismatch",
					other.Name(), model.Name(), err)
			}
			jx.Close()

			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if j2.Restored() == 0 {
				t.Fatal("journal restored no trials")
			}
			c2 := &Campaign{Prog: p, Verify: verify, Seed: 21, Model: model, Workers: 2, Journal: j2}
			resumed, err := c2.RunContext(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range refRes.Trials {
				if resumed.Trials[i] != refRes.Trials[i] {
					t.Fatalf("trial %d differs after resume: %+v vs %+v", i, resumed.Trials[i], refRes.Trials[i])
				}
			}
		})
	}
}

// TestTrialRecordsEffectiveBitAndMask is the Trial.Bit regression: the
// recorded bit must be the *effective* position after folding modulo
// the victim's width — derived from what the interpreter actually
// XORed in, never the plan's raw 0..63 draw.
func TestTrialRecordsEffectiveBitAndMask(t *testing.T) {
	golden := &interp.Result{}
	plan := interp.FaultPlan{Index: 5, Bit: 37}
	okVerify := func(_, _ *interp.Result) bool { return true }

	for _, tc := range []struct {
		name     string
		eff      uint64
		wantBit  int
		wantMask uint64
	}{
		{"folded to width 1", 1 << 0, 0, 0},
		{"raw single bit", 1 << 37, 37, 0},
		{"multi-bit keeps mask", 1<<3 | 1<<7, 3, 1<<3 | 1<<7},
		{"cancelled mask", 0, -1, 0},
	} {
		res := &interp.Result{Injected: true, InjectedSite: 4, InjectedMask: tc.eff}
		tr, err := trialFromResult(plan, golden, res, okVerify)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tr.Bit != tc.wantBit || tr.Mask != tc.wantMask {
			t.Errorf("%s: recorded bit=%d mask=%#x, want bit=%d mask=%#x",
				tc.name, tr.Bit, tr.Mask, tc.wantBit, tc.wantMask)
		}
	}
}

// fixedDrawModel is a test model that stamps a constant corruption onto
// every plan — it isolates the recording path from the draw.
type fixedDrawModel struct {
	name string
	bit  int
	mask uint64
}

func (m fixedDrawModel) Name() string { return m.name }
func (m fixedDrawModel) Draw(_ *rand.Rand, plan *interp.FaultPlan) {
	plan.Bit, plan.Mask = m.bit, m.mask
}

// TestCampaignEffectiveBitFoldsNarrowSites runs the regression end to
// end: with a model that always draws raw bit 37, trials landing on
// 1-bit comparison sites must record bit 0 (37 mod 1), trials on
// 64-bit sites record 37, and nothing else can appear. The shared test
// program's loop comparisons guarantee both widths occur.
func TestCampaignEffectiveBitFoldsNarrowSites(t *testing.T) {
	p, verify := compileCampaignProg(t)
	c := &Campaign{Prog: p, Verify: verify, Seed: 9, Model: fixedDrawModel{name: "test-bit-37", bit: 37}}
	res, err := c.Run(80)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, tr := range res.Trials {
		if tr.Status != TrialCompleted {
			continue
		}
		if tr.Bit != 0 && tr.Bit != 37 {
			t.Fatalf("trial recorded bit %d; raw draw 37 can only fold to 0 (width 1) or stay 37 (width 64): %+v", tr.Bit, tr)
		}
		if tr.Mask != 0 {
			t.Fatalf("single-bit corruption recorded a mask: %+v", tr)
		}
		seen[tr.Bit]++
	}
	if seen[0] == 0 || seen[37] == 0 {
		t.Fatalf("expected trials on both 1-bit and 64-bit sites, got distribution %v", seen)
	}
}

// TestCampaignCancelledMaskRecordsNoFlip: a multi-bit mask whose
// positions collide after width folding XORs to zero on narrow sites —
// injected but value unchanged. Such trials must record Bit -1, no
// mask, and classify as masked (the fault landed; the hardware upset
// happened; the program was unaffected).
func TestCampaignCancelledMaskRecordsNoFlip(t *testing.T) {
	p, verify := compileCampaignProg(t)
	// Bits 5 and 37 both fold to position 0 at width 1 and cancel;
	// at width 64 they remain a genuine two-bit corruption.
	c := &Campaign{Prog: p, Verify: verify, Seed: 9, Model: fixedDrawModel{name: "test-cancel", bit: 5, mask: 1<<5 | 1<<37}}
	res, err := c.Run(80)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled, wide int
	for _, tr := range res.Trials {
		if tr.Status != TrialCompleted {
			continue
		}
		switch tr.Bit {
		case -1:
			cancelled++
			if tr.Mask != 0 {
				t.Fatalf("cancelled injection recorded mask %#x: %+v", tr.Mask, tr)
			}
			if tr.Outcome != OutcomeMasked {
				t.Fatalf("cancelled injection classified %v, want masked: %+v", tr.Outcome, tr)
			}
		case 5:
			wide++
			if tr.Mask != 1<<5|1<<37 {
				t.Fatalf("wide-site injection recorded mask %#x, want %#x: %+v", tr.Mask, uint64(1<<5|1<<37), tr)
			}
		default:
			t.Fatalf("unexpected effective bit %d: %+v", tr.Bit, tr)
		}
	}
	if cancelled == 0 || wide == 0 {
		t.Fatalf("expected both cancelled and wide injections, got %d/%d", cancelled, wide)
	}
}

// TestJournalUnknownModelRefusesResume is the forward-compat satellite:
// a journal whose header names a model this build does not know must
// fail resume with ErrCampaignMismatch *and* ErrModelUnknown — across
// the plain and sectioned header formats — never silently re-run its
// trials under the default model.
func TestJournalUnknownModelRefusesResume(t *testing.T) {
	for _, tc := range []struct {
		name   string
		format string
	}{
		{"plain", JournalFormat},
		{"sectioned", JournalFormatSectioned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trials.jsonl")
			meta := JournalMeta{
				Format: tc.format, Seed: 11, Trials: 8, Population: 100,
				Model: "future-model-v9", ProgramFP: "deadbeefdeadbeefdeadbeefdeadbeef",
			}
			writeJournalHeader(t, path, meta)

			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			want := meta
			want.Model = "" // this build would drive the default model
			_, err = j.Begin(want)
			if !errors.Is(err, ErrCampaignMismatch) || !errors.Is(err, ErrModelUnknown) {
				t.Fatalf("Begin on unknown-model journal: err=%v, want ErrCampaignMismatch wrapping ErrModelUnknown", err)
			}
			if !strings.Contains(err.Error(), "future-model-v9") {
				t.Fatalf("diagnostic does not name the unknown model: %v", err)
			}
		})
	}

	// End to end on the plain format: a whole campaign resume must
	// surface the same refusal.
	t.Run("campaign resume", func(t *testing.T) {
		p, verify := compileCampaignProg(t)
		c := &Campaign{Prog: p, Verify: verify, Seed: 11}
		prep, err := c.Prepare(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		meta := prep.Meta(8)
		meta.Model = "future-model-v9"
		path := filepath.Join(t.TempDir(), "trials.jsonl")
		writeJournalHeader(t, path, meta)

		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		c2 := &Campaign{Prog: p, Verify: verify, Seed: 11, Journal: j}
		_, err = c2.RunContext(context.Background(), 8)
		if !errors.Is(err, ErrCampaignMismatch) || !errors.Is(err, ErrModelUnknown) {
			t.Fatalf("campaign resume on unknown-model journal: err=%v, want ErrCampaignMismatch wrapping ErrModelUnknown", err)
		}
	})
}

// writeJournalHeader writes a journal file holding only the given meta
// header — simulating a checkpoint left behind by another (newer)
// build.
func writeJournalHeader(t *testing.T, path string, meta JournalMeta) {
	t.Helper()
	data, err := json.Marshal(journalLine{Meta: &meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunSectionsUnknownModelFailsNotRebuilds guards the sectioned
// engine's journal: one naming an unknown model must hard-fail and stay
// on disk — rebuilding it would silently discard a newer build's
// trials.
func TestRunSectionsUnknownModelFailsNotRebuilds(t *testing.T) {
	dir := t.TempDir()
	runSectioned(t, 2, dir)
	path := filepath.Join(dir, CampaignJournal)

	// Stamp an unknown model into the journal's header, preserving
	// everything else so only the model mismatches.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	var rec journalLine
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Meta == nil {
		t.Fatalf("sectioned journal %s: malformed header (err=%v)", path, err)
	}
	rec.Meta.Model = "future-model-v9"
	hdr, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	stamped := string(hdr) + "\n" + lines[1]
	if err := os.WriteFile(path, []byte(stamped), 0o644); err != nil {
		t.Fatal(err)
	}

	prep, err := sectionedCampaign(t, 2).Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = prep.RunSections(context.Background(), dir)
	if !errors.Is(err, ErrModelUnknown) {
		t.Fatalf("sectioned run over unknown-model journal: err=%v, want ErrModelUnknown", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != stamped {
		t.Fatalf("unknown-model journal was rewritten instead of preserved (err=%v)", err)
	}
}
