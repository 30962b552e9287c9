// Package campaigntest holds the journal check that internal/campaign's
// coordinator tests share.
package campaigntest

import (
	"os"
	"path/filepath"
	"testing"

	"ipas/internal/fault"
)

// AssertJournal checks a completed coordinator campaign's directory
// dir against a local run of the same campaign: dir holds exactly
// fault.CampaignJournal; a journal bound with meta, the local run's
// header (fault.Prepared.Meta), accepts it, so the headers are equal;
// and it restores every trial of want, each one equal. Trials that
// skip excuses (a quarantined shard's range; nil excuses none) must be
// restored but are not compared. The journal is read, never written.
func AssertJournal(t testing.TB, dir string, meta fault.JournalMeta, want []fault.Trial, skip func(t int) bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != fault.CampaignJournal {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("campaign dir %s holds %v, want just %s", dir, names, fault.CampaignJournal)
	}
	j, err := fault.OpenJournal(filepath.Join(dir, fault.CampaignJournal))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got, err := j.Begin(meta)
	if err != nil {
		t.Fatalf("the local run's header does not bind the coordinator's journal: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("journal restores %d trials, want %d", len(got), len(want))
	}
	for i := range want {
		tr, ok := got[i]
		switch {
		case !ok:
			t.Fatalf("journal lacks trial %d", i)
		case skip != nil && skip(i):
		case tr != want[i]:
			t.Fatalf("journal trial %d differs:\n  got  %+v\n  want %+v", i, tr, want[i])
		}
	}
}
