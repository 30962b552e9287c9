package fault

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournal writes arbitrary bytes as a journal file: OpenJournal must
// never panic. When the file opens with a header of at most 4,096
// trials, binding a campaign with that header, copying the restored
// trials into their result slots as Prepared.run does, and Finalize
// must not panic either, and the status partition must account for
// every trial. The checked-in corpus (testdata/fuzz/FuzzJournal) holds
// a valid journal, a torn tail, and the records OpenJournal refuses.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), CampaignJournal)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return
		}
		defer j.Close()
		if j.meta == nil || j.meta.Trials < 0 || j.meta.Trials > 4096 {
			return
		}
		meta := *j.meta
		prev, err := j.Begin(meta)
		if err != nil {
			return // an unknown model: refused, not restored
		}
		res := &CampaignResult{Trials: make([]Trial, meta.Trials)}
		for i := range res.Trials {
			res.Trials[i] = Trial{Site: -1, Status: TrialPending}
		}
		for i, tr := range prev {
			res.Trials[i] = tr
		}
		res.Finalize()
		if res.Completed+res.Failed+res.Pending != meta.Trials {
			t.Fatalf("completed %d + failed %d + pending %d != %d trials",
				res.Completed, res.Failed, res.Pending, meta.Trials)
		}
	})
}
