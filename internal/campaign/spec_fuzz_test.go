package campaign

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"ipas/internal/fault"
)

// FuzzSpec feeds spec admission arbitrary JSON, as campaignd's submit
// route does: decoding, Normalize and Validate must never panic, and a
// spec they accept must name one directory right under the journal
// root, keep a plain campaign's shard and trial counts within
// 1 ≤ Shards ≤ Trials ≤ maxTrials, keep its hang factor within
// maxHangFactor, spell its defaults one way (the model as
// fault.ModelName names it, no hang factor of 10 or below 0, no rank
// count below 2 but 0, no workload input 0, the verifier "", a
// sectioned coverage of at least 1 and section budget of at least 0),
// spell the fields Build ignores as 0 (an inline source's input, a
// plain campaign's coverage and section budget), and come out of a
// second Normalize unchanged, ID and all. The checked-in corpus
// (testdata/fuzz/FuzzSpec) holds the names and counts admission
// refuses, and a retry budget, a field no spec has any more.
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
		if s.HangFactor > maxHangFactor {
			t.Fatalf("accepted spec has hang factor %d", s.HangFactor)
		}
		model, err := fault.ParseModel(s.Model)
		if err != nil || s.Model != fault.ModelName(model) {
			t.Fatalf("accepted spec spells its model %q (parse error %v)", s.Model, err)
		}
		if s.HangFactor < 0 || s.HangFactor == fault.DefaultHangFactor || s.Ranks < 0 || s.Ranks == 1 {
			t.Fatalf("accepted spec spells a default two ways: hang factor %d, ranks %d", s.HangFactor, s.Ranks)
		}
		if s.Verifier != "" || s.Workload != "" && s.Input == 0 || s.Source != "" && s.Input != 0 {
			t.Fatalf("accepted spec spells its program two ways: workload %q, input %d, verifier %q", s.Workload, s.Input, s.Verifier)
		}
		if s.Sections && (s.Coverage < 1 || s.MaxPerSection < 0) || !s.Sections && (s.Coverage != 0 || s.MaxPerSection != 0) {
			t.Fatalf("accepted spec spells its section knobs two ways: sections %t, coverage %d, max per section %d", s.Sections, s.Coverage, s.MaxPerSection)
		}
		again := s
		again.Normalize()
		if again != s || again.ID() != id {
			t.Fatalf("a second Normalize moved %+v (ID %q) to %+v (ID %q)", s, id, again, again.ID())
		}
	})
}
