package fault

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ipas/internal/interp"
	"ipas/internal/lang"
)

func sectionedCampaign(t *testing.T, coverage int) *Campaign {
	t.Helper()
	m, err := lang.Compile(campaignProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(golden, faulty *interp.Result) bool {
		return len(faulty.OutputF) == 1 && faulty.OutputF[0] == golden.OutputF[0]
	}
	return &Campaign{Prog: p, Verify: verify, Seed: 11, Sections: true, Coverage: coverage}
}

func runSectioned(t *testing.T, coverage int, dir string) *SectionResult {
	t.Helper()
	prep, err := sectionedCampaign(t, coverage).Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunSections(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSectionsJournalReuse(t *testing.T) {
	dir := t.TempDir()
	first := runSectioned(t, 2, dir)
	if first.Executed != first.Plan.Total || first.Restored != 0 {
		t.Fatalf("cold run: executed=%d restored=%d, want %d/0",
			first.Executed, first.Restored, first.Plan.Total)
	}
	second := runSectioned(t, 2, dir)
	if second.Executed != 0 || second.Restored != first.Plan.Total {
		t.Fatalf("warm run: executed=%d restored=%d, want 0/%d",
			second.Executed, second.Restored, first.Plan.Total)
	}
	for i, st := range second.Stats {
		if st.Restored != st.Trials {
			t.Errorf("section %d: restored %d of %d trials", i, st.Restored, st.Trials)
		}
	}
}

func TestRunSectionsStaleJournalRebuilt(t *testing.T) {
	dir := t.TempDir()
	runSectioned(t, 1, dir)
	// A different coverage changes per-section trial counts, so every
	// journal header mismatches and must be discarded and rebuilt —
	// not trusted, not fatal.
	res := runSectioned(t, 3, dir)
	if res.Restored != 0 || res.Executed != res.Plan.Total {
		t.Fatalf("after coverage change: executed=%d restored=%d, want %d/0",
			res.Executed, res.Restored, res.Plan.Total)
	}
}

func TestRunSectionsCorruptJournalRebuilt(t *testing.T) {
	dir := t.TempDir()
	first := runSectioned(t, 2, dir)
	names, err := filepath.Glob(filepath.Join(dir, "sec-*.jsonl"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no section journals written (err=%v)", err)
	}
	if err := os.WriteFile(names[0], []byte("{half a rec"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := runSectioned(t, 2, dir)
	if res.Executed == 0 {
		t.Error("corrupt journal re-used instead of rebuilt")
	}
	if res.Executed+res.Restored != first.Plan.Total {
		t.Errorf("executed %d + restored %d != total %d",
			res.Executed, res.Restored, first.Plan.Total)
	}
}

// A sectioned campaign reports infrastructure failures through
// Progress exactly as a plain one does: when one trial panics on its
// only attempt, the final Progress call counts it.
func TestRunSectionsProgressReportsFailures(t *testing.T) {
	c := sectionedCampaign(t, 1)
	c.MaxRetries = NoRetries
	c.Workers = 2
	c.beforeTrial = func(trial, attempt int) {
		if trial == 1 {
			panic("injected test panic")
		}
	}
	var done, total, failed int
	c.Progress = func(d, n, f, _ int) { done, total, failed = d, n, f }
	prep, err := c.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunSections(context.Background(), "")
	if res == nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("a failed trial returned no error")
	}
	if res.Failed != 1 || failed != res.Failed {
		t.Fatalf("res.Failed = %d, last Progress failed = %d; want 1 and 1", res.Failed, failed)
	}
	if done != total || total != len(res.Trials) {
		t.Fatalf("last Progress call %d/%d, want %d/%d", done, total, len(res.Trials), len(res.Trials))
	}
}

// TestJournalCrossFormatMismatch is the admission rule both the local
// runner and campaignd rely on: a plain campaign may not adopt a
// sectioned journal, and vice versa.
func TestJournalCrossFormatMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sectioned := JournalMeta{
		Format: JournalFormatSectioned, Seed: 11, Trials: 8,
		Population: 100, SectionFP: "deadbeefdeadbeefdeadbeefdeadbeef",
	}
	if _, err := j.Begin(sectioned); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A plain campaign with otherwise identical parameters must be
	// refused: the trial spaces are incompatible (section-local site
	// ordinals vs global SiteIDs).
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	plain := sectioned
	plain.Format = ""
	plain.SectionFP = ""
	if _, err := j2.Begin(plain); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("plain Begin on sectioned journal: err=%v, want ErrCampaignMismatch", err)
	}

	// And the reverse: a sectioned campaign must not adopt a plain
	// journal.
	path2 := filepath.Join(dir, "plain.jsonl")
	j3, err := OpenJournal(path2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Begin(JournalMeta{Seed: 11, Trials: 8, Population: 100}); err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	j4, err := OpenJournal(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if _, err := j4.Begin(sectioned); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("sectioned Begin on plain journal: err=%v, want ErrCampaignMismatch", err)
	}
}
