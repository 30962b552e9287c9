//go:build unix

package fault

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// Two concurrent campaigns must never interleave writes into one
// journal: the second opener is rejected with ErrJournalLocked, and
// the lock dies with the first journal's Close.
func TestJournalLockRejectsConcurrentOpener(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(path)
	if err == nil {
		t.Fatal("second opener acquired a locked journal")
	}
	if !errors.Is(err, ErrJournalLocked) {
		t.Fatalf("second opener failed with %v, want ErrJournalLocked", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("lock error does not name the journal: %v", err)
	}

	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal stayed locked after Close: %v", err)
	}
	j2.Close()
}
