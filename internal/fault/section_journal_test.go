package fault

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
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

// Re-running a sectioned campaign against its directory restores every
// trial from the one journal there, executing nothing.
func TestRunSectionsJournalReuse(t *testing.T) {
	dir := t.TempDir()
	first := runSectioned(t, 2, dir)
	if first.Completed != first.Plan.Total {
		t.Fatalf("cold run completed %d of %d trials", first.Completed, first.Plan.Total)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) != 1 || filepath.Base(names[0]) != CampaignJournal {
		t.Fatalf("journal dir holds %v (err=%v), want just %s", names, err, CampaignJournal)
	}

	c := sectionedCampaign(t, 2)
	var executed atomic.Int32
	c.beforeTrial = func(int, int) { executed.Add(1) }
	prep, err := c.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := prep.RunSections(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Fatalf("warm run executed %d trials, want 0", executed.Load())
	}
	if !reflect.DeepEqual(second.Trials, first.Trials) {
		t.Fatal("restored trials differ from the cold run's")
	}
}

// A directory of per-section journals written by an older build is
// refused with ErrCampaignMismatch and left as it was: this build
// cannot read that layout, and running anyway would silently re-run
// its trials.
func TestRunSectionsRefusesPerSectionJournals(t *testing.T) {
	runSectionsRefusesOlderLayout(t, "sec-0123456789abcdef.jsonl",
		`{"meta":{"format":"ipas-trial-journal-sectioned-v1","seed":1,"trials":2,"golden_dyn":0,"population":9,"section_fp":"0123456789abcdef"}}`+"\n")
}

// RunSections refuses the coordinator's older layouts as well: per-shard
// journals and their merged copy.
func TestRunSectionsRefusesShardJournals(t *testing.T) {
	for _, name := range []string{"shard-0000.jsonl", "merged.jsonl"} {
		runSectionsRefusesOlderLayout(t, name,
			`{"meta":{"format":"ipas-trial-journal-sectioned-v1","seed":11,"trials":4,"golden_dyn":100,"population":50,"shards":2,"program_fp":"deadbeef"}}`+"\n")
	}
}

// runSectionsRefusesOlderLayout runs a sectioned campaign over a
// directory holding only the file name and wants ErrCampaignMismatch
// with the directory unchanged.
func runSectionsRefusesOlderLayout(t *testing.T, name, data string) {
	t.Helper()
	dir := t.TempDir()
	old := filepath.Join(dir, name)
	if err := os.WriteFile(old, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	prep, err := sectionedCampaign(t, 1).Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RunSections(context.Background(), dir); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("RunSections over %s: err=%v, want ErrCampaignMismatch", name, err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	if after, _ := os.ReadFile(old); len(names) != 1 || string(after) != data {
		t.Fatalf("refused directory was modified: %v", names)
	}
}

// A sectioned campaign reports infrastructure failures through
// Progress exactly as a plain one does: when one trial panics on every
// attempt, the final Progress call counts it.
func TestRunSectionsProgressReportsFailures(t *testing.T) {
	c := sectionedCampaign(t, 1)
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
		Population: 100, ProgramFP: "deadbeefdeadbeefdeadbeefdeadbeef",
	}
	if _, err := j.Begin(sectioned); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A plain campaign with otherwise identical parameters must be
	// refused: the trial spaces are incompatible (per-section plan
	// streams vs the flat one).
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	plain := sectioned
	plain.Format = ""
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
	if _, err := j3.Begin(plain); err != nil {
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
