package campaign

import (
	"context"
	"net/http"
	"path/filepath"
	"testing"

	"ipas/internal/fault"
)

// TestSpecValidateModel: the coordinator must reject specs naming a
// model it cannot draw (admission-time forward compat — a worker fleet
// must never be handed a plan space it would draw differently).
func TestSpecValidateModel(t *testing.T) {
	good := testSpec("", 8, 2, 1)
	good.Model = "burst-3"
	if err := good.Validate(); err != nil {
		t.Fatalf("spec with burst-3 rejected: %v", err)
	}
	bad := testSpec("", 8, 2, 1)
	bad.Model = "future-model-v9"
	if err := bad.Validate(); err == nil {
		t.Fatal("spec naming an unknown model passed validation")
	}
}

// TestSpecModelKeepsLegacyID: the default model must serialize as the
// empty string so content-hashed campaign IDs — and therefore journal
// directories and resubmission convergence — are unchanged from
// pre-model builds.
func TestSpecModelKeepsLegacyID(t *testing.T) {
	a := testSpec("", 8, 2, 1)
	b := testSpec("", 8, 2, 1)
	b.Model = ""
	if a.ID() != b.ID() {
		t.Fatalf("empty model changed the campaign ID: %s vs %s", a.ID(), b.ID())
	}
	c := testSpec("", 8, 2, 1)
	c.Model = "sticky"
	if c.ID() == a.ID() {
		t.Fatal("a sticky-model spec content-hashed to the default-model ID")
	}
}

// TestServerModelCampaignsMatchLocalReference is the local-vs-remote
// leg of the model determinism matrix: for every built-in model, a
// campaign executed by coordinator + workers must reproduce the local
// single-loop engine's result and journal bit for bit, header (and so
// model) included.
func TestServerModelCampaignsMatchLocalReference(t *testing.T) {
	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root})
	startWorker(t, client, nil)
	startWorker(t, client, nil)

	for _, model := range fault.BuiltinModels() {
		t.Run(model.Name(), func(t *testing.T) {
			spec := testSpec("", 16, 3, 42)
			spec.Model = fault.ModelName(model)
			want, meta := localReference(t, spec)
			if meta.Model != fault.ModelName(model) {
				t.Fatalf("local header names model %q, want %q", meta.Model, fault.ModelName(model))
			}

			sub, status, err := client.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if status != http.StatusCreated {
				t.Fatalf("fresh submit returned HTTP %d, want 201", status)
			}
			res := waitComplete(t, client, sub.ID)
			assertSameTrials(t, res, want)
			assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, nil)
		})
	}
}
