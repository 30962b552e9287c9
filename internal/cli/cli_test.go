package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"ipas/internal/core"
)

// parse registers the shared flags on a fresh flag set, parses args
// and returns the flags with their controls.
func parse(t *testing.T, args ...string) (*Flags, *core.CampaignControls, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "test")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cc, err := f.Controls()
	return f, cc, err
}

// want is the part of a CampaignControls the flags select, in
// comparable form.
type want struct {
	model           string
	shards          int
	remote          string
	progress        bool
	sections        bool
	coverage        int
	maxPerSection   int
	remoteSpecIsNil bool
}

func got(cc *core.CampaignControls) want {
	w := want{
		model:           cc.Model.Name(),
		shards:          cc.Shards,
		progress:        cc.Progress != nil,
		sections:        cc.Sections,
		coverage:        cc.SectionCoverage,
		maxPerSection:   cc.MaxPerSection,
		remoteSpecIsNil: cc.RemoteSpec == nil,
	}
	if cc.Remote != nil {
		w.remote = cc.Remote.Base
	}
	return w
}

func TestControlsFromFlags(t *testing.T) {
	defaults := want{model: "single-bit", shards: 1, coverage: 1, remoteSpecIsNil: true}
	for _, tc := range []struct {
		args []string
		want func(w *want)
	}{
		{nil, func(*want) {}},
		{[]string{"-error-model", "burst-3"}, func(w *want) { w.model = "burst-3" }},
		{[]string{"-error-model", "sticky"}, func(w *want) { w.model = "sticky" }},
		{[]string{"-remote", "http://127.0.0.1:7077", "-shards", "4"}, func(w *want) { w.remote, w.shards = "http://127.0.0.1:7077", 4 }},
		{[]string{"-sections", "-coverage", "3", "-max-per-section", "8"}, func(w *want) { w.sections, w.coverage, w.maxPerSection = true, 3, 8 }},
		{[]string{"-progress", "-deadline", "1m"}, func(w *want) { w.progress = true }},
	} {
		_, cc, err := parse(t, tc.args...)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		w := defaults
		tc.want(&w)
		if g := got(cc); g != w {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, g, w)
		}
	}
}

// Conflicting or unknown values fail in Controls, before any campaign
// can run.
func TestControlsUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-shards", "2"}, "-shards partitions a -remote campaign across the coordinator's workers; it needs -remote"},
		{[]string{"-shards", "2", "-sections"}, "it needs -remote"},
		{[]string{"-error-model", "bogus"}, `unknown error model "bogus"`},
		{[]string{"-error-model", "burst-0"}, "burst"},
	} {
		_, cc, err := parse(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%q: controls %v, error %v; want an error containing %q", tc.args, cc, err, tc.msg)
		}
	}
}

// The progress printer writes one stage-tagged line each time a stage
// reaches a new tenth, the last at completion: trials with their
// failed and deadlocked tallies, grid points for training stages. A
// coordinator's polls jump over tenths and repeat counts; each new
// tenth still prints once.
func TestProgressLines(t *testing.T) {
	f, _, err := parse(t, "-progress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.stderr = &buf
	cc, err := f.Controls()
	if err != nil {
		t.Fatal(err)
	}
	for done := 1; done <= 25; done++ {
		cc.Progress("eval IPAS-1", done, 25, done/10, done/20)
	}
	for done := 1; done <= 5; done++ {
		cc.Progress("FFT: train IPAS", done, 5, 0, 0)
	}
	for _, done := range []int{0, 0, 13, 57, 58, 200, 200} {
		cc.Progress("collect", done, 200, 0, 0)
	}
	want := `test: eval IPAS-1: 3/25 trials (0 failed, 0 deadlocked)
test: eval IPAS-1: 5/25 trials (0 failed, 0 deadlocked)
test: eval IPAS-1: 8/25 trials (0 failed, 0 deadlocked)
test: eval IPAS-1: 10/25 trials (1 failed, 0 deadlocked)
test: eval IPAS-1: 13/25 trials (1 failed, 0 deadlocked)
test: eval IPAS-1: 15/25 trials (1 failed, 0 deadlocked)
test: eval IPAS-1: 18/25 trials (1 failed, 0 deadlocked)
test: eval IPAS-1: 20/25 trials (2 failed, 1 deadlocked)
test: eval IPAS-1: 23/25 trials (2 failed, 1 deadlocked)
test: eval IPAS-1: 25/25 trials (2 failed, 1 deadlocked)
test: FFT: train IPAS: 1/5 grid points
test: FFT: train IPAS: 2/5 grid points
test: FFT: train IPAS: 3/5 grid points
test: FFT: train IPAS: 4/5 grid points
test: FFT: train IPAS: 5/5 grid points
test: collect: 57/200 trials (0 failed, 0 deadlocked)
test: collect: 200/200 trials (0 failed, 0 deadlocked)
`
	if buf.String() != want {
		t.Fatalf("progress lines:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestDeadlineCancelsContext(t *testing.T) {
	f, _, err := parse(t, "-deadline", "20ms")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := f.Context()
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("-deadline 20ms did not cancel the context within 10s")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("context error %v, want deadline exceeded", ctx.Err())
	}

	// Without -deadline only a signal or stop ends the run.
	f, _, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop = f.Context()
	if ctx.Err() != nil {
		t.Fatalf("context done before stop: %v", ctx.Err())
	}
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop left the context running")
	}
}

func TestInterruptedNotice(t *testing.T) {
	f, _, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.stderr = &buf
	f.Interrupted("ckpt/")
	f.Interrupted("")
	want := "test: checkpoint saved; rerun with -journal ckpt/ -resume to continue\n" +
		"test: no -journal was set, so this partial progress is lost on exit\n"
	if buf.String() != want {
		t.Fatalf("notices:\n%s\nwant:\n%s", buf.String(), want)
	}
}
