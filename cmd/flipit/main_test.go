package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipas/internal/campaign"
)

// flipitArgsEnv turns the test binary into flipit: TestMain runs main
// with the newline-separated arguments it holds, so each test drives
// the real command line, exit codes included, in a child process.
const flipitArgsEnv = "IPAS_FLIPIT_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(flipitArgsEnv); args != "" {
		os.Args = append([]string{"flipit"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flipit runs the command with args in a child process and returns its
// stdout, stderr and exit code.
func flipit(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), flipitArgsEnv+"="+strings.Join(args, "\n"))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// startCoordinator serves an in-process coordinator with one worker
// until test cleanup and returns its URL.
func startCoordinator(t *testing.T) string {
	t.Helper()
	srv, err := campaign.New(campaign.Options{Dir: t.TempDir(), Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(context.Background())
	w := &campaign.Worker{Server: hs.URL, Name: "flipit-test", Poll: 10 * time.Millisecond}
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
	return hs.URL
}

// A campaign submitted to a coordinator and split over two shards
// prints exactly what the same campaign run locally prints, plain and
// sectioned with the per-function table.
func TestRemoteMatchesLocal(t *testing.T) {
	url := startCoordinator(t)
	for name, args := range map[string][]string{
		"plain":    {"-workload", "FFT", "-n", "40", "-seed", "7"},
		"sections": {"-workload", "FFT", "-sections", "-coverage", "1", "-max-per-section", "8", "-funcs"},
	} {
		t.Run(name, func(t *testing.T) {
			local, stderr, code := flipit(t, args...)
			if code != 0 {
				t.Fatalf("local run exited %d: %s", code, stderr)
			}
			remote, stderr, code := flipit(t, append(args, "-remote", url, "-shards", "2")...)
			if code != 0 {
				t.Fatalf("remote run exited %d: %s", code, stderr)
			}
			if remote != local {
				t.Fatalf("remote stdout differs from local:\n--- local\n%s--- remote\n%s", local, remote)
			}
		})
	}
}

// Conflicting flags fail before any trial runs: -shards partitions
// only a coordinator's campaign, and a remote campaign journals on the
// coordinator, not in -journal.
func TestConflictingFlagsRunNoTrials(t *testing.T) {
	url := startCoordinator(t)
	for name, args := range map[string][]string{
		"shards without remote": {"-shards", "2"},
		"remote with journal":   {"-remote", url},
	} {
		t.Run(name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "j.jsonl")
			stdout, stderr, code := flipit(t, append(args, "-workload", "FFT", "-n", "40", "-journal", journal)...)
			if code == 0 {
				t.Fatalf("exited 0; stdout:\n%s", stdout)
			}
			if stdout != "" || stderr == "" {
				t.Fatalf("want only a usage error on stderr; stdout %q, stderr %q", stdout, stderr)
			}
			if data, err := os.ReadFile(journal); err == nil && len(data) > 0 {
				t.Fatalf("journal holds %d bytes: trials ran before the refusal", len(data))
			}
		})
	}
}
