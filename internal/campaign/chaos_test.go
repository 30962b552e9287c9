package campaign

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ipas/internal/fault"
)

// Chaos tests exercise the coordinator against real worker processes:
// SIGKILLed workers, workers that stop heartbeating, workers too slow
// to keep a lease alive, and a shard that fails every attempt. The
// re-exec pattern below turns this test binary into a worker when the
// server env var is set.
const (
	chaosServerEnv    = "IPAS_CHAOS_WORKER_SERVER"
	chaosHBLimitEnv   = "IPAS_CHAOS_WORKER_HBLIMIT"
	chaosSleepEnv     = "IPAS_CHAOS_WORKER_TRIAL_SLEEP_MS"
	chaosFailShardEnv = "IPAS_CHAOS_WORKER_FAIL_SHARD"
)

func TestMain(m *testing.M) {
	if server := os.Getenv(chaosServerEnv); server != "" {
		runChaosWorker(server)
		return
	}
	os.Exit(m.Run())
}

// runChaosWorker polls the coordinator until the process is killed.
func runChaosWorker(server string) {
	hbLimit, _ := strconv.Atoi(os.Getenv(chaosHBLimitEnv))
	sleepMS, _ := strconv.Atoi(os.Getenv(chaosSleepEnv))
	failShard := -1
	if v := os.Getenv(chaosFailShardEnv); v != "" {
		failShard, _ = strconv.Atoi(v)
	}
	w := &Worker{
		Server:         server,
		Name:           fmt.Sprintf("chaos-%d", os.Getpid()),
		Poll:           20 * time.Millisecond,
		HeartbeatLimit: hbLimit,
		BeforeTrial: func(campaign string, sh, trial int) error {
			if sh == failShard {
				return errors.New("injected shard failure")
			}
			if sleepMS > 0 {
				time.Sleep(time.Duration(sleepMS) * time.Millisecond)
			}
			return nil
		},
	}
	w.Run(context.Background())
}

// spawnChaosWorker re-execs this test binary as a worker process.
func spawnChaosWorker(t *testing.T, base string, env map[string]string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), chaosServerEnv+"="+base)
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// TestServerChaosConvergence drives one campaign through a hostile
// fleet: a worker SIGKILLed mid-shard, a partitioned worker that stops
// heartbeating and is too slow to renew its lease through record acks,
// and a healthy replacement. The campaign must converge to the exact
// result and journal of a local Workers=1 run.
func TestServerChaosConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test spawns worker processes")
	}
	spec := testSpec("chaos", 36, 6, 7)
	want, meta := localReference(t, spec)

	root := t.TempDir()
	client := newTestServer(t, Options{
		Dir:      root,
		LeaseTTL: 400 * time.Millisecond,
		Backoff:  2 * time.Millisecond,
		Retries:  20,
	})
	sub, status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("fresh submit returned HTTP %d, want 201", status)
	}

	// victim: healthy but doomed. partitioned: one heartbeat, then
	// silence, with trials slower than the lease TTL — every lease it
	// takes expires mid-shard and its late records answer 410.
	victim := spawnChaosWorker(t, client.Base, map[string]string{chaosSleepEnv: "10"})
	spawnChaosWorker(t, client.Base, map[string]string{chaosHBLimitEnv: "1", chaosSleepEnv: "500"})

	time.Sleep(300 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	spawnChaosWorker(t, client.Base, map[string]string{chaosSleepEnv: "5"})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := client.WaitResult(ctx, sub.ID, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("campaign did not converge: %v", err)
	}
	assertSameTrials(t, res, want)
	assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, nil)
}

// TestServerChaosQuarantineExhaustion runs a worker process that fails
// one shard on every attempt: that shard alone exhausts its retry
// budget and fails with the deterministic quarantine message, while
// every sibling shard's trials and journal records stay bit-identical
// to the local reference.
func TestServerChaosQuarantineExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test spawns worker processes")
	}
	spec := testSpec("chaos-exhaust", 18, 6, 11)
	want, meta := localReference(t, spec)
	const sick = 2

	root := t.TempDir()
	client := newTestServer(t, Options{
		Dir:     root,
		Backoff: 2 * time.Millisecond,
		Retries: 1,
	})
	sub, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spawnChaosWorker(t, client.Base, map[string]string{chaosFailShardEnv: strconv.Itoa(sick)})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := client.WaitResult(ctx, sub.ID, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("campaign did not converge: %v", err)
	}

	lo, hi := shardRange(spec.Trials, spec.Shards, sick)
	if res.Failed != hi-lo {
		t.Fatalf("%d trials failed, want the sick shard's %d", res.Failed, hi-lo)
	}
	wantErr := fmt.Sprintf("shard %d/%d quarantined after 2 attempts: injected shard failure", sick, spec.Shards)
	for tr := 0; tr < spec.Trials; tr++ {
		if tr >= lo && tr < hi {
			if res.Trials[tr].Status != fault.TrialFailed || res.Trials[tr].Err != wantErr {
				t.Fatalf("sick-shard trial %d: %+v, want Err %q", tr, res.Trials[tr], wantErr)
			}
			continue
		}
		if res.Trials[tr] != want.Trials[tr] {
			t.Fatalf("sibling trial %d differs:\n  got  %+v\n  want %+v", tr, res.Trials[tr], want.Trials[tr])
		}
	}
	assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, func(trial int) bool { return trial >= lo && trial < hi })
}
