package campaign

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// FuzzSpec feeds spec admission arbitrary JSON, as campaignd's submit
// route does: decoding, Normalize and Validate must never panic, and a
// spec they accept must name one directory right under the journal
// root, keep a plain campaign's shard and trial counts within
// 1 ≤ Shards ≤ Trials ≤ maxTrials, keep its hang factor and retry
// budget within maxHangFactor and maxRetries, and keep its ID under a
// second Normalize. The checked-in corpus (testdata/fuzz/FuzzSpec)
// holds the names and counts admission refuses.
func FuzzSpec(f *testing.F) {
	for _, s := range []Spec{
		testSpec("", 8, 2, 1),
		{Name: "fft", Workload: "FFT", Trials: 40, Seed: 7, Shards: 2, Model: "burst-3"},
		{Source: testSource, Verifier: "exact", Sections: true, Coverage: 2, MaxPerSection: 8},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	const root = "journals"
	f.Fuzz(func(t *testing.T, data string) {
		var s Spec
		if json.Unmarshal([]byte(data), &s) != nil {
			return
		}
		s.Normalize()
		if s.Validate() != nil {
			return
		}
		id := s.ID()
		if p := filepath.Join(root, id); filepath.Dir(p) != root || filepath.Base(p) != id {
			t.Fatalf("accepted spec's ID %q is not one path element under %s", id, root)
		}
		if !s.Sections && !(1 <= s.Shards && s.Shards <= s.Trials && s.Trials <= maxTrials) {
			t.Fatalf("accepted plain spec has %d shards over %d trials", s.Shards, s.Trials)
		}
		if s.HangFactor > maxHangFactor || s.MaxRetries > maxRetries {
			t.Fatalf("accepted spec has hang factor %d and %d retries", s.HangFactor, s.MaxRetries)
		}
		again := s
		again.Normalize()
		if again.ID() != id {
			t.Fatalf("a second Normalize moved the ID from %q to %q", id, again.ID())
		}
	})
}
