package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipas/internal/fault"
)

// A collection campaign cancelled mid-run and re-run against the same
// checkpoint directory must yield the same training set as an
// uninterrupted collection.
func TestCollectContextCheckpointResume(t *testing.T) {
	app := loadApp(t, "FFT")
	const samples = 60

	ref, err := Collect(app, samples, 9)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	cp1, err := NewCheckpoint(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc1 := &CampaignControls{
		Workers:    2,
		Checkpoint: cp1,
		Progress: func(stage string, done, total, failed, deadlocked int) {
			if done >= 10 {
				cancel()
			}
		},
	}
	if _, err := CollectContext(ctx, app, samples, 9, cc1); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted collection returned %v, want context.Canceled", err)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	cp2, err := NewCheckpoint(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	got, err := CollectContext(context.Background(), app, samples, 9, &CampaignControls{Checkpoint: cp2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Fatalf("resumed collection degraded: %v", got.Degraded)
	}
	if len(got.X) != len(ref.X) {
		t.Fatalf("resumed collection has %d samples, want %d", len(got.X), len(ref.X))
	}
	for i := range ref.SOC {
		if got.SOC[i] != ref.SOC[i] || got.Symptom[i] != ref.Symptom[i] {
			t.Fatalf("labels differ at sample %d after resume", i)
		}
	}
	for i := range ref.Campaign.Trials {
		if got.Campaign.Trials[i] != ref.Campaign.Trials[i] {
			t.Fatalf("trial %d differs after resume: %+v vs %+v",
				i, got.Campaign.Trials[i], ref.Campaign.Trials[i])
		}
	}
}

// Without resume, pointing a workflow at a checkpoint directory that
// already holds trials must fail loudly instead of silently mixing two
// runs' journals.
func TestCheckpointRefusesSilentReuse(t *testing.T) {
	app := loadApp(t, "FFT")
	dir := filepath.Join(t.TempDir(), "ckpt")

	cp1, err := NewCheckpoint(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectContext(context.Background(), app, 10, 4, &CampaignControls{Checkpoint: cp1}); err != nil {
		t.Fatal(err)
	}
	cp1.Close()

	cp2, err := NewCheckpoint(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	_, err = CollectContext(context.Background(), app, 10, 4, &CampaignControls{Checkpoint: cp2})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("reused checkpoint without resume: %v", err)
	}
}

// Sub-checkpoints must scope identical stage names into distinct
// journal files so suite-level checkpoints cannot collide.
func TestCheckpointSubScopesStages(t *testing.T) {
	cp, err := NewCheckpoint(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	for _, sub := range []string{"FFT", "HPCCG"} {
		if _, err := cp.Sub(sub).Journal("collect"); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(cp.Dir, sub, "collect.jsonl")); err != nil {
			t.Fatalf("sub-checkpoint %s has no journal file of its own: %v", sub, err)
		}
	}
	if cp.Sub("FFT") != cp.Sub("FFT") {
		t.Fatal("Sub is not cached per name")
	}
}

// A sectioned collection checkpoints into its ordinary stage journal,
// like a plain one; re-running against the same directory with resume
// restores every trial bit-identically.
func TestCollectSectionedCheckpointResume(t *testing.T) {
	app := loadApp(t, "FFT")
	dir := filepath.Join(t.TempDir(), "ckpt")

	cp1, err := NewCheckpoint(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	cc1 := &CampaignControls{Checkpoint: cp1, Sections: true, SectionCoverage: 1, MaxPerSection: 6}
	d1, err := CollectContext(context.Background(), app, 0, 9, cc1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.X) == 0 {
		t.Fatal("sectioned collection produced no samples")
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) != 1 || filepath.Base(names[0]) != "collect.jsonl" {
		t.Fatalf("checkpoint dir holds %v (err=%v), want just collect.jsonl", names, err)
	}
	header, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(header), `{"meta":{"format":"`+fault.JournalFormatSectioned+`"`) {
		t.Fatalf("collect.jsonl begins %.80q, want a header in the sectioned format", header)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	cp2, err := NewCheckpoint(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	cc2 := &CampaignControls{Checkpoint: cp2, Sections: true, SectionCoverage: 1, MaxPerSection: 6}
	d2, err := CollectContext(context.Background(), app, 0, 9, cc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Campaign.Trials) != len(d1.Campaign.Trials) {
		t.Fatalf("restored collection has %d trials, want %d", len(d2.Campaign.Trials), len(d1.Campaign.Trials))
	}
	for i := range d1.Campaign.Trials {
		if d1.Campaign.Trials[i] != d2.Campaign.Trials[i] {
			t.Fatalf("trial %d differs after sectioned restore: %+v vs %+v",
				i, d1.Campaign.Trials[i], d2.Campaign.Trials[i])
		}
	}
	for i := range d1.SOC {
		if d1.SOC[i] != d2.SOC[i] || d1.Symptom[i] != d2.Symptom[i] {
			t.Fatalf("labels differ at sample %d after sectioned restore", i)
		}
	}
}

// A checkpoint directory from an older build may keep a stage's trials
// in layouts nothing reads any more: the in-process sharded engine's
// "<stage>.shards/" or the per-section journals of "<stage>.sections/".
// Resuming that stage must be refused with ErrCampaignMismatch naming
// the directory, never silently re-run — on the plain and the
// sectioned route alike.
func TestCheckpointRefusesLegacyShards(t *testing.T) {
	app := loadApp(t, "FFT")
	for _, layout := range []struct{ dir, file string }{
		{"collect.shards", "shard-0000.jsonl"},
		{"collect.sections", "sec-0123456789abcdef.jsonl"},
	} {
		dir := t.TempDir()
		legacy := filepath.Join(dir, layout.dir)
		if err := os.MkdirAll(legacy, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(legacy, layout.file), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := NewCheckpoint(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		for _, sections := range []bool{false, true} {
			cc := &CampaignControls{Checkpoint: cp, Sections: sections}
			_, err := CollectContext(context.Background(), app, 10, 4, cc)
			if !errors.Is(err, fault.ErrCampaignMismatch) || !strings.Contains(err.Error(), legacy) {
				t.Fatalf("sections=%t: resuming over %s: err = %v, want ErrCampaignMismatch naming it", sections, legacy, err)
			}
		}
		// Stages without a legacy directory are unaffected.
		if _, err := cp.Journal("eval IPAS-1"); err != nil {
			t.Fatal(err)
		}
	}
}
