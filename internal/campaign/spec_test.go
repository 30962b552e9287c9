package campaign

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/workloads"
)

// Fill is Build's inverse: a spec filled from a configured campaign
// builds and prepares to the campaign's own journal fingerprint, so a
// coordinator running the spec executes exactly the local trial space.
func TestSpecFillRoundTrip(t *testing.T) {
	ctx := context.Background()
	burst, err := fault.ParseModel("burst-3")
	if err != nil {
		t.Fatal(err)
	}
	// A workload campaign is configured the way the CLIs build it, not
	// through Build, so the round trip cannot hide behind a shared path.
	workload := func() *fault.Campaign {
		ws := workloads.MustGet("FFT", 1)
		m, err := ws.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := fault.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		return &fault.Campaign{Prog: prog, Verify: ws.Verify, Config: ws.BaseConfig(1)}
	}
	for _, tc := range []struct {
		name     string
		program  Spec // names the program only
		sections bool
	}{
		{"source", Spec{Source: testSource, Verifier: "exact"}, false},
		{"source sectioned", Spec{Source: testSource, Verifier: "exact"}, true},
		{"workload", Spec{Workload: "FFT", Input: 1}, false},
		{"workload sectioned", Spec{Workload: "FFT", Input: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			var c *fault.Campaign
			if tc.program.Workload != "" {
				c = workload()
			} else if c, err = tc.program.Build(); err != nil {
				t.Fatal(err)
			}
			c.Seed, c.Model, c.HangFactor = 5, burst, 7
			if tc.sections {
				c.Sections, c.Coverage, c.MaxPerSection = true, 2, 3
			}

			s := tc.program
			s.Fill(c, n)
			if err := s.Validate(); err != nil {
				t.Fatalf("filled spec invalid: %v", err)
			}
			wantTrials := n
			if tc.sections {
				wantTrials = 0 // the coordinator derives it from the allocation
			}
			if s.Trials != wantTrials {
				t.Fatalf("filled spec has %d trials, want %d", s.Trials, wantTrials)
			}
			rc, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			if rc.Seed != c.Seed || fault.ModelName(rc.Model) != fault.ModelName(c.Model) ||
				rc.HangFactor != c.HangFactor ||
				rc.Config.Ranks != max(c.Config.Ranks, 1) ||
				rc.Sections != c.Sections || rc.Coverage != c.Coverage || rc.MaxPerSection != c.MaxPerSection {
				t.Fatalf("rebuilt campaign differs:\n got %+v\nwant %+v", rc, c)
			}
			want, err := c.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rc.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Meta(n) != want.Meta(n) {
				t.Fatalf("rebuilt Meta(%d) = %+v, want %+v", n, got.Meta(n), want.Meta(n))
			}
		})
	}
}

// Normalize spells every default one way, and every field Build
// ignores as 0 or "", so every spelling of one campaign gets the
// content ID of the spelling that omits them: the ID a campaign
// directory is named after. Values that differ from the default keep
// their own IDs, and values above an admission bound and specs naming
// both a workload and a source stay as submitted for Validate to
// refuse.
func TestSpecNormalizeOneIDPerCampaign(t *testing.T) {
	base := func() Spec { return Spec{Workload: "FFT", Trials: 8, Seed: 3} }
	canonical := base()
	canonical.Normalize()
	// The omitted spelling's ID, which every default spelling shares.
	const wantID = "9006117577b7525f"
	if id := canonical.ID(); id != wantID {
		t.Fatalf("spec omitting every default has ID %s, want %s", id, wantID)
	}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
	}{
		{"input 1", func(s *Spec) { s.Input = 1 }},
		{"shards 1", func(s *Spec) { s.Shards = 1 }},
		{"shards 0", func(s *Spec) { s.Shards = 0 }},
		{"hang factor 10", func(s *Spec) { s.HangFactor = 10 }},
		{"hang factor -1", func(s *Spec) { s.HangFactor = -1 }},
		{"ranks 1", func(s *Spec) { s.Ranks = 1 }},
		{"ranks -3", func(s *Spec) { s.Ranks = -3 }},
		{"model single-bit", func(s *Spec) { s.Model = "single-bit" }},
		{"verifier exact", func(s *Spec) { s.Verifier = "exact" }},
		{"coverage 4", func(s *Spec) { s.Coverage = 4 }},
		{"max per section 16", func(s *Spec) { s.MaxPerSection = 16 }},
		{"max per section -1", func(s *Spec) { s.MaxPerSection = -1 }},
		{"every default spelled out", func(s *Spec) {
			s.Input, s.Shards, s.HangFactor, s.Ranks, s.Model = 1, 1, 10, 1, "single-bit"
		}},
	} {
		s := base()
		tc.edit(&s)
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
		if s != canonical {
			t.Errorf("%s: normalized to %+v, want %+v", tc.name, s, canonical)
		}
		if id := s.ID(); id != wantID {
			t.Errorf("%s: ID %s, want %s", tc.name, id, wantID)
		}
	}

	// Inline-source and sectioned campaigns: each spelling shares the
	// ID of its campaign's spelling that omits the field.
	for _, tc := range []struct {
		name   string
		base   Spec
		wantID string
		edit   func(*Spec)
	}{
		{"source verifier exact", Spec{Source: testSource, Trials: 8, Seed: 3}, "79914df18bf978ec", func(s *Spec) { s.Verifier = "exact" }},
		{"source input 2", Spec{Source: testSource, Trials: 8, Seed: 3}, "79914df18bf978ec", func(s *Spec) { s.Input = 2 }},
		{"sectioned max per section -1", Spec{Workload: "FFT", Seed: 3, Sections: true}, "5caf2a54447f07d7", func(s *Spec) { s.MaxPerSection = -1 }},
	} {
		want := tc.base
		want.Normalize()
		s := tc.base
		tc.edit(&s)
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
		if s != want {
			t.Errorf("%s: normalized to %+v, want %+v", tc.name, s, want)
		}
		if id, wantID := s.ID(), want.ID(); id != tc.wantID || wantID != tc.wantID {
			t.Errorf("%s: ID %s, omitted spelling's ID %s, want both %s", tc.name, id, wantID, tc.wantID)
		}
	}

	// Spellings of one non-default value share an ID of their own.
	burst, burst03 := base(), base()
	burst.Model, burst03.Model = "burst-3", "burst-03"
	burst.Normalize()
	burst03.Normalize()
	if burst.ID() != burst03.ID() || burst.ID() == wantID {
		t.Errorf("burst-3 and burst-03 got IDs %s and %s, want one ID other than %s", burst.ID(), burst03.ID(), wantID)
	}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"hang factor 20", func(s *Spec) { s.HangFactor = 20 }, true},
		{"ranks 2", func(s *Spec) { s.Ranks = 2 }, true},
		{"model sticky", func(s *Spec) { s.Model = "sticky" }, true},
		{"hang factor above the bound", func(s *Spec) { s.HangFactor = maxHangFactor + 1 }, false},
		{"ranks above the bound", func(s *Spec) { s.Ranks = maxRanks + 1 }, false},
		{"unknown model", func(s *Spec) { s.Model = "future-model-v9" }, false},
		{"coverage above the bound", func(s *Spec) { s.Coverage = maxTrials + 1 }, false},
		{"workload and source", func(s *Spec) { s.Source, s.Verifier, s.Input = testSource, "exact", 2 }, false},
	} {
		s := canonical
		tc.edit(&s)
		submitted := s
		s.Normalize()
		if s != submitted {
			t.Errorf("%s: Normalize changed %+v into %+v", tc.name, submitted, s)
		}
		if s.ID() == wantID {
			t.Errorf("%s: shares the default campaign's ID", tc.name)
		}
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

// Validate refuses a name that is no directory of its own under the
// journal root, and counts above the admission bounds; the bounds
// themselves are admitted.
func TestSpecValidateBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"name ..", func(s *Spec) { s.Name = ".." }, false},
		{"name .", func(s *Spec) { s.Name = "." }, false},
		{"name ../x", func(s *Spec) { s.Name = "../x" }, true}, // sanitized to "..-x"
		{"trials at the bound", func(s *Spec) { s.Trials = maxTrials }, true},
		{"trials above the bound", func(s *Spec) { s.Trials = maxTrials + 1 }, false},
		{"coverage above the bound", func(s *Spec) { s.Trials, s.Sections, s.Coverage = 0, true, maxTrials+1 }, false},
		{"ranks at the bound", func(s *Spec) { s.Ranks = maxRanks }, true},
		{"ranks above the bound", func(s *Spec) { s.Ranks = maxRanks + 1 }, false},
		{"hang factor at the bound", func(s *Spec) { s.HangFactor = maxHangFactor }, true},
		{"hang factor above the bound", func(s *Spec) { s.HangFactor = maxHangFactor + 1 }, false},
	} {
		s := testSpec("bounds", 8, 2, 1)
		tc.edit(&s)
		s.Normalize()
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

// The submit route answers 400 for a spec Validate refuses, creating
// nothing outside the journal root, and for a sectioned spec whose
// derived allocation exceeds the trial bound.
func TestServerRefusesUnboundedSpecs(t *testing.T) {
	root := filepath.Join(t.TempDir(), "root")
	client := newTestServer(t, Options{Dir: root})
	sectioned := Spec{Source: testSource, Verifier: "exact", Sections: true, Coverage: maxTrials}
	sectioned.Normalize()
	hang := testSpec("", 4, 1, 1)
	hang.HangFactor = 1_000_000
	for _, tc := range []struct {
		spec Spec
		why  string
	}{
		{testSpec("..", 4, 1, 1), "names no directory"},
		{testSpec("", maxTrials+1, 1, 1), "trials, above the limit"},
		{sectioned, "allocates"},
		{hang, "hang factor 1000000, above the limit"},
	} {
		_, status, err := client.Submit(context.Background(), tc.spec)
		if status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("submit of %+v returned HTTP %d, %v; want 400 saying %q", tc.spec, status, err, tc.why)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "root" {
		t.Fatalf("refused specs left %v beside the journal root", entries)
	}
	if entries, _ := os.ReadDir(root); len(entries) != 0 {
		t.Fatalf("refused specs left %v in the journal root", entries)
	}
}
