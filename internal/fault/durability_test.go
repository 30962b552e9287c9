package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// durabilityRun records n trials, calling Sync after the first record
// when sync is set, and returns the fsyncs issued plus the journal's
// on-disk bytes after Close.
func durabilityRun(t *testing.T, sync bool, n int) (syncs int, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(JournalMeta{Seed: 9, Trials: n, GoldenDyn: 100, Population: 50}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Record(i, Trial{Site: i, Bit: i % 64, Index: int64(i), Latency: int64(10 * i)}); err != nil {
			t.Fatal(err)
		}
		if sync && i == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return j.syncs, data
}

// Durability changes only when bytes reach stable storage, never which
// bytes: buffered Record and Close issue no fsync, one Sync issues
// exactly one, and both journals are byte-identical.
func TestJournalDurabilityPolicy(t *testing.T) {
	const n = 7
	bufSyncs, bufBytes := durabilityRun(t, false, n)
	if bufSyncs != 0 {
		t.Fatalf("buffered journal issued %d fsyncs, want 0", bufSyncs)
	}
	syncs, data := durabilityRun(t, true, n)
	if syncs != 1 {
		t.Errorf("one Sync issued %d fsyncs, want 1", syncs)
	}
	if !bytes.Equal(data, bufBytes) {
		t.Errorf("synced journal bytes differ from the buffered journal")
	}
}

// Sync forces buffered records to disk on demand (the coordinator
// calls it before acknowledging a worker's segment), and a synced
// journal still resumes exactly.
func TestJournalExplicitSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := JournalMeta{Seed: 4, Trials: 2, GoldenDyn: 10, Population: 5}
	if _, err := j.Begin(meta); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, Trial{Site: 3, Bit: 2, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if j.syncs != 1 {
		t.Fatalf("explicit Sync issued %d fsyncs, want 1", j.syncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	prev, err := j2.Begin(meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) != 1 || prev[0].Site != 3 {
		t.Fatalf("restored %v, want the synced trial", prev)
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
}
