package campaign

import (
	"context"
	"net/http"
	"path/filepath"
	"testing"

	"ipas/internal/workloads"
)

// TestConvergenceWorkloadsAcrossHarnessPaths drives both
// iterative-convergence mini-apps through every execution path the
// harness offers — golden run, local injection, sectioned, and
// coordinator+worker — under a non-default error model, asserting the
// paths that share a plan space (local, remote) agree bit for bit. This is the acceptance matrix for the convergence
// workloads: residual-based verifiers and multi-bit models must
// compose with every engine, not just the single local loop.
func TestConvergenceWorkloadsAcrossHarnessPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaigns are slow")
	}
	ctx := context.Background()
	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root})
	startWorker(t, client, nil)
	startWorker(t, client, nil)

	for _, wl := range workloads.ConvergenceNames {
		t.Run(wl, func(t *testing.T) {
			spec := Spec{Workload: wl, Input: 1, Trials: 8, Seed: 33, Shards: 2, Model: "burst-3"}
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}

			// Path 1: golden. The fault-free reference must pass the
			// workload's own residual verifier — everything downstream
			// classifies against it.
			c, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			prep, err := c.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !workloads.MustGet(wl, spec.Input).Verify(prep.Golden, prep.Golden) {
				t.Fatal("golden run fails the workload verifier")
			}
			if prep.Population <= 0 {
				t.Fatalf("golden run counted no injectable population")
			}

			// Path 2: local injection — the reference everything else
			// must reproduce.
			want, meta := localReference(t, spec)
			if len(want.Trials) != spec.Trials {
				t.Fatalf("local campaign ran %d trials, want %d", len(want.Trials), spec.Trials)
			}

			// Path 3: sectioned. The allocation replaces the flat trial
			// count, so only completion and classification are asserted.
			secSpec := spec
			secSpec.Sections = true
			secSpec.Coverage = 1
			secSpec.MaxPerSection = 2
			xc, err := secSpec.Build()
			if err != nil {
				t.Fatal(err)
			}
			sprep, err := xc.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			secRes, err := sprep.RunSections(ctx, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if secRes.Completed == 0 || len(secRes.Trials) != sprep.SectionTotal() {
				t.Fatalf("sectioned run completed %d of %d trials", secRes.Completed, sprep.SectionTotal())
			}

			// Path 4: remote (coordinator + workers).
			sub, status, err := client.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if status != http.StatusCreated {
				t.Fatalf("fresh submit returned HTTP %d, want 201", status)
			}
			rres := waitComplete(t, client, sub.ID)
			assertSameTrials(t, rres, want)
			assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, nil)
		})
	}
}
