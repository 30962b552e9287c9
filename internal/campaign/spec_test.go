package campaign

import (
	"context"
	"testing"
	"time"

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
			c.Seed, c.Model, c.HangFactor, c.MaxRetries = 5, burst, 7, fault.NoRetries
			c.Config.Watchdog = 3 * time.Second
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
				rc.HangFactor != c.HangFactor || rc.MaxRetries != c.MaxRetries ||
				rc.Config.Watchdog != c.Config.Watchdog || rc.Config.Ranks != max(c.Config.Ranks, 1) ||
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
