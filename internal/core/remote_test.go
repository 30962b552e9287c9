package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/compose"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/lang"
)

// startCoordinator runs a campaign coordinator and one worker in
// process over httptest until test cleanup, returning a client bound
// to the coordinator.
func startCoordinator(t *testing.T) *campaign.Client {
	t.Helper()
	srv, err := campaign.New(campaign.Options{Dir: t.TempDir(), Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(context.Background())
	w := &campaign.Worker{Server: hs.URL, Name: "core-test", Poll: 10 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		hs.Close()
		srv.Close()
	})
	return &campaign.Client{Base: hs.URL}
}

// remoteSource is a small inline program for coordinator campaigns: 32
// pseudo-random floats reduced to one sqrt-of-sum-of-squares output.
const remoteSource = `
func main() {
	var n int = 32;
	var a *float = malloc_f64(n);
	var seed int = 77;
	for (var i int = 0; i < n; i = i + 1) {
		seed = (seed * 1103515245 + 12345) % 2147483648;
		a[i] = float(seed % 100) / 7.0;
	}
	var s float = 0.0;
	for (var i int = 0; i < n; i = i + 1) {
		s = s + a[i] * a[i];
	}
	out_f64(0, sqrt(s));
}
`

// remoteCampaign returns a fresh campaign over remoteSource, checked
// like the coordinator checks inline programs: with its "exact"
// verifier, every output equal to the golden run's.
func remoteCampaign(t *testing.T) *fault.Campaign {
	t.Helper()
	m, err := lang.Compile(remoteSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(golden, faulty *interp.Result) bool {
		return slices.Equal(faulty.OutputF, golden.OutputF) && slices.Equal(faulty.OutputI, golden.OutputI)
	}
	return &fault.Campaign{Prog: prog, Verify: exact, Config: interp.Config{Ranks: 1}, Seed: 21}
}

// CampaignControls.Run with Remote and RemoteSpec dispatches the stage
// to the coordinator, split over two shards, and gets back exactly the
// trials a local run of the same campaign produces — plain or
// sectioned.
func TestRunRemoteMatchesLocal(t *testing.T) {
	ctx := context.Background()
	client := startCoordinator(t)
	newCampaign := func() *fault.Campaign { return remoteCampaign(t) }
	for _, sections := range []bool{false, true} {
		t.Run(fmt.Sprintf("sections=%t", sections), func(t *testing.T) {
			const n = 12
			local := &CampaignControls{Workers: 1, Sections: sections, MaxPerSection: 4}
			want, err := local.Run(ctx, newCampaign(), n, "collect")
			if err != nil {
				t.Fatal(err)
			}

			var dispatched []string
			lastDone := 0
			remote := &CampaignControls{
				Sections: sections, MaxPerSection: 4, Shards: 2, Remote: client,
				RemoteSpec: func(stage string) *campaign.Spec {
					dispatched = append(dispatched, stage)
					return &campaign.Spec{Source: remoteSource, Verifier: "exact"}
				},
				Progress: func(stage string, done, total, failed, deadlocked int) { lastDone = done },
			}
			got, err := remote.Run(ctx, newCampaign(), n, "collect")
			if err != nil {
				t.Fatal(err)
			}
			if len(dispatched) != 1 || dispatched[0] != "collect" {
				t.Fatalf("RemoteSpec saw stages %v, want [collect]", dispatched)
			}
			if len(got.Trials) != len(want.Trials) || lastDone != len(want.Trials) {
				t.Fatalf("remote ran %d trials (last progress %d), local %d", len(got.Trials), lastDone, len(want.Trials))
			}
			for i := range want.Trials {
				if got.Trials[i] != want.Trials[i] {
					t.Fatalf("trial %d: remote %+v, local %+v", i, got.Trials[i], want.Trials[i])
				}
			}
		})
	}
}

// Shards partitions coordinator campaigns only; asking for shards on a
// local run is a usage error, not a silently unsharded campaign.
func TestRunShardsWithoutRemoteRefused(t *testing.T) {
	cc := &CampaignControls{Shards: 4}
	if _, err := cc.Run(context.Background(), &fault.Campaign{}, 10, "collect"); err == nil || !strings.Contains(err.Error(), "Remote") {
		t.Fatalf("local run with Shards=4: err = %v, want a usage error naming Remote", err)
	}
}

// A sectioned stage's Proportion, local or remote, is the
// population-weighted composition of its own trials, not their raw
// shares: raw shares overweight the sections whose budgets are large
// relative to their populations.
func TestSectionedProportionIsComposed(t *testing.T) {
	ctx := context.Background()
	client := startCoordinator(t)
	for _, remote := range []bool{false, true} {
		t.Run(fmt.Sprintf("remote=%t", remote), func(t *testing.T) {
			cc := &CampaignControls{Sections: true, MaxPerSection: 4}
			if remote {
				cc.Remote = client
				cc.RemoteSpec = func(string) *campaign.Spec {
					return &campaign.Spec{Source: remoteSource, Verifier: "exact"}
				}
			}
			c := remoteCampaign(t)
			res, err := cc.Run(ctx, c, 0, "collect")
			if err != nil {
				t.Fatal(err)
			}
			prep, err := c.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := compose.Whole(compose.FromSectionResult(prep.SectionResult(res)))
			if err != nil {
				t.Fatal(err)
			}
			rawDiffers := false
			for o := range want {
				if got := res.Proportion(fault.Outcome(o)); got != want[o] {
					t.Fatalf("%v: Proportion %.4f, composed %.4f (raw share %d/%d)",
						fault.Outcome(o), got, want[o], res.Counts[o], res.Completed)
				}
				rawDiffers = rawDiffers || float64(res.Counts[o])/float64(res.Completed) != want[o]
			}
			if !rawDiffers {
				t.Fatal("the campaign's raw shares equal its composition, so the test cannot tell them apart")
			}
		})
	}
}
