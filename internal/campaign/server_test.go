package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ipas/internal/fault"
)

// testSource mirrors the fault package's shared test program: 32
// pseudo-random floats reduced to one sqrt-of-sum-of-squares output,
// verified bit-exactly so any corruption is SOC.
const testSource = `
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

var errInjected = errors.New("injected shard failure")

func testSpec(name string, trials, shards int, seed int64) Spec {
	s := Spec{Name: name, Source: testSource, Verifier: "exact", Trials: trials, Seed: seed, Shards: shards}
	s.Normalize()
	return s
}

// newTestServer starts a coordinator over httptest and returns a
// client bound to its URL.
func newTestServer(t *testing.T, opts Options) *Client {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 5 * time.Second
	}
	if opts.Backoff == 0 {
		opts.Backoff = time.Millisecond
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &Client{Base: hs.URL}
}

// startWorker runs an in-process worker until test cleanup.
func startWorker(t *testing.T, client *Client, cfg func(*Worker)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Server: client.Base, Name: "test-worker", Poll: 10 * time.Millisecond}
	if cfg != nil {
		cfg(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// localReference runs the spec's campaign on the local single-loop
// engine with Workers=1: the ground truth every remote configuration
// must reproduce bit for bit. It also returns the journal header the
// local run writes, which the coordinator's journal must carry.
func localReference(t *testing.T, spec Spec) (*fault.CampaignResult, fault.JournalMeta) {
	t.Helper()
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = 1
	res, err := c.RunContext(context.Background(), spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := c.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, prep.Meta(spec.Trials)
}

func assertSameTrials(t *testing.T, got, want *fault.CampaignResult) {
	t.Helper()
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(got.Trials), len(want.Trials))
	}
	for i := range got.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Fatalf("trial %d differs:\n  got  %+v\n  want %+v", i, got.Trials[i], want.Trials[i])
		}
	}
	if got.Counts != want.Counts || got.GoldenDyn != want.GoldenDyn {
		t.Fatalf("statistics differ: %+v vs %+v", got, want)
	}
}

// assertJournal checks a completed coordinator campaign's directory
// dir against a local run of the same campaign: dir holds exactly
// fault.CampaignJournal; a journal bound with meta, the local run's
// header (fault.Prepared.Meta), accepts it, so the headers are equal;
// and it restores every trial of want, each one equal. Trials that
// skip excuses (a quarantined shard's range; nil excuses none) must be
// restored but are not compared. The journal is read, never written.
func assertJournal(t testing.TB, dir string, meta fault.JournalMeta, want []fault.Trial, skip func(t int) bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != fault.CampaignJournal {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("campaign dir %s holds %v, want just %s", dir, names, fault.CampaignJournal)
	}
	j, err := fault.OpenJournal(filepath.Join(dir, fault.CampaignJournal))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got, err := j.Begin(meta)
	if err != nil {
		t.Fatalf("the local run's header does not bind the coordinator's journal: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("journal restores %d trials, want %d", len(got), len(want))
	}
	for i := range want {
		tr, ok := got[i]
		switch {
		case !ok:
			t.Fatalf("journal lacks trial %d", i)
		case skip != nil && skip(i):
		case tr != want[i]:
			t.Fatalf("journal trial %d differs:\n  got  %+v\n  want %+v", i, tr, want[i])
		}
	}
}

// waitComplete polls the coordinator until the campaign completes.
func waitComplete(t *testing.T, client *Client, id string) *fault.CampaignResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.WaitResult(ctx, id, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("campaign %s did not complete: %v", id, err)
	}
	return res
}

// A remote campaign executed by workers must reproduce the local
// single-loop engine's result and journal bit for bit.
func TestServerCampaignMatchesLocalReference(t *testing.T) {
	spec := testSpec("", 20, 4, 42)
	want, meta := localReference(t, spec)

	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root})
	sub, status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("fresh submit returned HTTP %d, want 201", status)
	}
	startWorker(t, client, nil)
	startWorker(t, client, nil)

	res := waitComplete(t, client, sub.ID)
	assertSameTrials(t, res, want)
	assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, nil)

	p, err := client.Progress(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "complete" || p.Completed != spec.Trials || p.Failed != 0 {
		t.Fatalf("progress after completion: %+v", p)
	}

	// Resubmitting the identical spec converges on the completed
	// campaign instead of re-running anything.
	sub2, status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || sub2.Status != "complete" || sub2.ID != sub.ID {
		t.Fatalf("resubmit: HTTP %d, %+v", status, sub2)
	}
}

// Result fetches before completion answer 425 (mapped to
// ErrNotComplete), never a partial result.
func TestServerResultTooEarly(t *testing.T) {
	client := newTestServer(t, Options{})
	sub, _, err := client.Submit(context.Background(), testSpec("early", 4, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Result(context.Background(), sub.ID); !errors.Is(err, ErrNotComplete) {
		t.Fatalf("Result before completion: %v, want ErrNotComplete", err)
	}
	p, err := client.Progress(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != "running" || p.Pending != 4 {
		t.Fatalf("progress of an idle campaign: %+v", p)
	}
}

// copyDir clones a journal directory tree so each pathology case
// mutilates its own copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The coordinator classifies damage to a campaign's journal on
// admission with distinct HTTP statuses — clean resume 200, torn tail
// truncated 200, corrupt journal deleted and the campaign re-run 202,
// resubmission at another shard count resumed 200, a foreign
// campaign's journal, an older build's header or an older build's
// shard journals 409, a locked journal 423. Every recoverable case
// converges to the local reference's journal, and every refusal leaves
// the campaign directory untouched.
func TestServerJournalPathologies(t *testing.T) {
	spec := testSpec("patho", 12, 3, 9)
	want, meta := localReference(t, spec)

	// Seed a completed campaign directory to mutilate.
	seedRoot := t.TempDir()
	client := newTestServer(t, Options{Dir: seedRoot})
	sub, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, client, nil)
	waitComplete(t, client, sub.ID)

	journal := func(root string) string { return filepath.Join(root, sub.ID, fault.CampaignJournal) }
	// keepLines rewrites the journal to its first n lines plus, when
	// torn is set, half of line n+1 without its newline.
	keepLines := func(t *testing.T, root string, n int, torn bool) {
		data, err := os.ReadFile(journal(root))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		out := bytes.Join(lines[:n], nil)
		if torn {
			out = append(out, lines[n][:len(lines[n])/2]...)
		}
		if err := os.WriteFile(journal(root), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name       string
		shards     int // resubmitted shard count
		mutilate   func(t *testing.T, root string)
		wantStatus int
		runWorker  bool // campaign needs execution to converge
	}{
		{
			name:       "clean resume of a complete campaign",
			shards:     3,
			mutilate:   func(t *testing.T, root string) {},
			wantStatus: http.StatusOK,
		},
		{
			name:       "torn tail truncated silently",
			shards:     3,
			mutilate:   func(t *testing.T, root string) { keepLines(t, root, spec.Trials, true) },
			wantStatus: http.StatusOK,
			runWorker:  true,
		},
		{
			name:   "corrupt journal deleted and re-run",
			shards: 3,
			mutilate: func(t *testing.T, root string) {
				bogus := []byte(`{"meta":{"format":"bogus"}}` + "\n")
				if err := os.WriteFile(journal(root), bogus, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantStatus: http.StatusAccepted,
			runWorker:  true,
		},
		{
			// A record its header could not have produced (an outcome
			// past the classes) is corruption too: the journal is
			// deleted and every trial re-runs.
			name:   "bad record deleted and re-run",
			shards: 3,
			mutilate: func(t *testing.T, root string) {
				keepLines(t, root, 1+spec.Trials/2, false)
				f, err := os.OpenFile(journal(root), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				bad := fmt.Sprintf(`{"t":%d,"trial":{"site":3,"bit":5,"index":17,"outcome":9,"latency":40}}`+"\n", spec.Trials-1)
				if _, err := f.WriteString(bad); err != nil {
					t.Fatal(err)
				}
			},
			wantStatus: http.StatusAccepted,
			runWorker:  true,
		},
		{
			// The partition only decides dispatch: the journal's header
			// does not name it, so the four shards re-run the four
			// trials the truncation lost and nothing else.
			name:       "repartitioned campaign resumed",
			shards:     4,
			mutilate:   func(t *testing.T, root string) { keepLines(t, root, 1+spec.Trials-4, false) },
			wantStatus: http.StatusOK,
			runWorker:  true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			copyDir(t, seedRoot, root)
			tc.mutilate(t, root)
			client := newTestServer(t, Options{Dir: root})
			resubmitted := testSpec("patho", spec.Trials, tc.shards, spec.Seed)
			sub2, status, err := client.Submit(context.Background(), resubmitted)
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.wantStatus {
				t.Fatalf("submit returned HTTP %d, want %d", status, tc.wantStatus)
			}
			if tc.runWorker {
				startWorker(t, client, nil)
			}
			res := waitComplete(t, client, sub2.ID)
			assertSameTrials(t, res, want)
			assertJournal(t, filepath.Join(root, sub2.ID), meta, want.Trials, nil)
		})
	}

	// refused submits spec to a coordinator on root and wants status
	// and the sentinel, with root's campaign directory unchanged.
	refused := func(t *testing.T, root string, spec Spec, status int, sentinel error) {
		t.Helper()
		before := readTree(t, root)
		client := newTestServer(t, Options{Dir: root})
		_, got, err := client.Submit(context.Background(), spec)
		if got != status || !errors.Is(err, sentinel) {
			t.Fatalf("submit returned HTTP %d, %v; want %d and %v", got, err, status, sentinel)
		}
		if after := readTree(t, root); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused campaign directory changed:\n  before %v\n  after  %v", before, after)
		}
	}

	t.Run("foreign campaign rejected 409", func(t *testing.T) {
		root := t.TempDir()
		copyDir(t, seedRoot, root)
		refused(t, root, testSpec("patho", 12, 3, 10), http.StatusConflict, fault.ErrCampaignMismatch) // same name, different seed
	})

	t.Run("another hang factor rejected 409", func(t *testing.T) {
		// The header pins a non-default hang factor, which decides
		// which long trials end as hangs.
		root := t.TempDir()
		copyDir(t, seedRoot, root)
		hang := spec
		hang.HangFactor = 20
		refused(t, root, hang, http.StatusConflict, fault.ErrCampaignMismatch)
	})

	t.Run("older-build journal rejected 409", func(t *testing.T) {
		// A header without the program fingerprint was written by an
		// older build.
		root := t.TempDir()
		copyDir(t, seedRoot, root)
		data, err := os.ReadFile(journal(root))
		if err != nil {
			t.Fatal(err)
		}
		stripped := regexp.MustCompile(`,"program_fp":"[0-9a-f]*"`).ReplaceAll(data, nil)
		if bytes.Equal(stripped, data) {
			t.Fatal("journal header carries no program fingerprint")
		}
		if err := os.WriteFile(journal(root), stripped, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, root, spec, http.StatusConflict, fault.ErrCampaignMismatch)
	})

	t.Run("older layout rejected 409", func(t *testing.T) {
		// Older builds kept one journal per shard and, on completion,
		// merged.jsonl, or one per section; any one alone marks the
		// layout.
		for _, name := range []string{"shard-0000.jsonl", "merged.jsonl", "sec-0000.jsonl"} {
			root := t.TempDir()
			copyDir(t, seedRoot, root)
			if err := os.Rename(journal(root), filepath.Join(root, sub.ID, name)); err != nil {
				t.Fatal(err)
			}
			refused(t, root, spec, http.StatusConflict, fault.ErrCampaignMismatch)
		}
	})

	t.Run("locked journal rejected 423", func(t *testing.T) {
		root := t.TempDir()
		copyDir(t, seedRoot, root)
		holder, err := fault.OpenJournal(journal(root))
		if err != nil {
			t.Fatal(err)
		}
		defer holder.Close()
		refused(t, root, spec, http.StatusLocked, fault.ErrJournalLocked)
	})
}

// readTree maps every file under root to its contents.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// A worker that stops heartbeating loses its lease: heartbeats and
// record posts answer 410 Gone, the shard requeues with an attempt
// charged, and a healthy worker still converges to the byte-identical
// result.
func TestServerLeaseExpiryRequeuesShard(t *testing.T) {
	spec := testSpec("expiry", 6, 2, 5)
	want, meta := localReference(t, spec)

	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root, LeaseTTL: 60 * time.Millisecond, Backoff: time.Millisecond})
	sub, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Acquire a lease by hand and never heartbeat (a heartbeat would
	// extend it); watch the shard lose its holder via progress instead.
	grant := acquireRaw(t, client.Base)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		p, err := client.Progress(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shards[grant.Shard].Worker == "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := postStatus(t, client.Base, "/api/v1/leases/"+grant.Lease+"/heartbeat", struct{}{}); got != http.StatusGone {
		t.Fatalf("heartbeat on an expired lease returned HTTP %d, want 410", got)
	}
	if got := postStatus(t, client.Base, "/api/v1/leases/"+grant.Lease+"/records", Segment{Done: true}); got != http.StatusGone {
		t.Fatalf("records on an expired lease returned HTTP %d, want 410", got)
	}

	startWorker(t, client, nil)
	res := waitComplete(t, client, sub.ID)
	assertSameTrials(t, res, want)
	assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, nil)
	p, err := client.Progress(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards[grant.Shard].Attempts < 2 {
		t.Fatalf("expired shard %d shows %d attempts, want >= 2", grant.Shard, p.Shards[grant.Shard].Attempts)
	}
}

// Leases expire on whatever request comes next, with no goroutine
// between requests: a one-shard campaign with no shard retries whose
// only lease is never heartbeated completes while the client polls
// nothing but /result, every trial failed by the lease's expiry.
func TestServerResultPollExpiresLease(t *testing.T) {
	client := newTestServer(t, Options{LeaseTTL: 50 * time.Millisecond, Retries: -1})
	sub, _, err := client.Submit(context.Background(), testSpec("poll-expiry", 4, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	acquireRaw(t, client.Base)
	res := waitComplete(t, client, sub.ID) // no onProgress: /result alone
	const msg = "shard 0/1 quarantined after 1 attempts: lease expired (missed heartbeat)"
	for i, tr := range res.Trials {
		if tr.Status != fault.TrialFailed || tr.Err != msg || tr.Attempts != 1 {
			t.Fatalf("trial %d recorded as %+v, want failed once with %q", i, tr, msg)
		}
	}
}

// A shard whose every attempt fails exhausts its quarantine budget and
// fails alone: its unexecuted trials carry the deterministic quarantine
// message while sibling shards complete bit-identically.
func TestServerQuarantineExhaustionFailsShardAlone(t *testing.T) {
	spec := testSpec("exhaust", 12, 4, 8)
	want, meta := localReference(t, spec)
	const sick = 1

	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root, Retries: 1, Backoff: time.Millisecond})
	sub, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, client, func(w *Worker) {
		w.BeforeTrial = func(campaign string, sh, trial int) error {
			if sh == sick {
				return errInjected
			}
			return nil
		}
	})

	res := waitComplete(t, client, sub.ID)
	lo, hi := shardRange(spec.Trials, spec.Shards, sick)
	if res.Failed != hi-lo {
		t.Fatalf("%d trials failed, want the sick shard's %d", res.Failed, hi-lo)
	}
	wantErr := "shard 1/4 quarantined after 2 attempts: injected shard failure"
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

	// The journal carries the reference's header and, outside the
	// failed shard's range, its trials.
	assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, func(trial int) bool { return trial >= lo && trial < hi })
}

// A journal write failure must not leave a phantom in-memory settle:
// the coordinator answers 500 with the trial still pending, so the
// worker's retry of the same segment is re-journaled — never answered
// with an idempotent durable ack for a record that missed the disk.
func TestServerJournalFailureLeavesTrialPending(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), LeaseTTL: time.Minute, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	client := &Client{Base: hs.URL}
	sub, _, err := client.Submit(context.Background(), testSpec("jfail", 4, 2, 13))
	if err != nil {
		t.Fatal(err)
	}
	grant := acquireRaw(t, client.Base)

	// Make every append to the leased shard's journal fail by closing
	// the file underneath the coordinator.
	srv.mu.Lock()
	srv.campaigns[sub.ID].journal.Close()
	srv.mu.Unlock()

	seg := Segment{Records: []Record{{T: grant.Lo, Trial: fault.Trial{
		Site: -1, Status: fault.TrialFailed, Err: "synthetic", Attempts: 1,
	}}}}
	for attempt := 1; attempt <= 2; attempt++ {
		if got := postStatus(t, client.Base, "/api/v1/leases/"+grant.Lease+"/records", seg); got != http.StatusInternalServerError {
			t.Fatalf("segment post %d with a failing journal returned HTTP %d, want 500 (phantom settle acked without a durable write)", attempt, got)
		}
	}
	p, err := client.Progress(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards[grant.Shard].Settled != 0 || p.Done != 0 {
		t.Fatalf("unjournaled records settled in memory: %+v", p)
	}
}

// A segment carrying a record that is no settled trial — an unknown
// status, or a completed trial whose outcome is outside the outcome
// classes — is refused whole with 400 before anything is journaled or
// settled: acked, it would reach the journal and break every later
// progress report, restart and local resume.
func TestServerRejectsMalformedRecords(t *testing.T) {
	spec := testSpec("malformed", 6, 2, 19)
	want, meta := localReference(t, spec)
	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root})
	sub, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	grant := acquireRaw(t, client.Base)
	records := "/api/v1/leases/" + grant.Lease + "/records"
	good := Record{T: grant.Lo, Trial: want.Trials[grant.Lo]}
	for _, bad := range []fault.Trial{
		{Site: -1, Status: 7, Attempts: 1},
		{Site: 3, Status: fault.TrialCompleted, Outcome: fault.NumOutcomes, Attempts: 1},
		{Site: 3, Status: fault.TrialCompleted, Outcome: 9, Attempts: 1},
		{Site: 3, Status: fault.TrialCompleted, Outcome: -1, Attempts: 1},
	} {
		seg := Segment{Records: []Record{good, {T: grant.Lo + 1, Trial: bad}}}
		if got := postStatus(t, client.Base, records, seg); got != http.StatusBadRequest {
			t.Fatalf("segment with record %+v returned HTTP %d, want 400", bad, got)
		}
		p, err := client.Progress(context.Background(), sub.ID)
		if err != nil {
			t.Fatalf("progress after a refused segment: %v", err)
		}
		if p.Done != 0 {
			t.Fatalf("refused segment settled %d trials", p.Done)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, sub.ID, fault.CampaignJournal))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != 1 {
		t.Fatalf("journal holds %d lines after refused segments, want the header alone", lines)
	}

	// Surrender the lease; a healthy worker completes the campaign.
	if got := postStatus(t, client.Base, records, Segment{Fail: "test surrender"}); got != http.StatusOK {
		t.Fatalf("surrender returned HTTP %d, want 200", got)
	}
	startWorker(t, client, nil)
	assertSameTrials(t, waitComplete(t, client, sub.ID), want)
	assertJournal(t, filepath.Join(root, sub.ID), meta, want.Trials, nil)
}

// A long-lived worker whose cached campaign ID is reused for a new
// spec (a coordinator restarted on a cleaned directory pins the same
// name to different content) must rebuild from the grant's spec
// instead of surrendering every lease for that ID into terminal
// shard failure.
func TestWorkerRebuildsStaleCampaignCache(t *testing.T) {
	specA := testSpec("pinned", 6, 2, 21)
	specB := testSpec("pinned", 6, 2, 22) // same campaign ID, different fingerprint
	wantB, _ := localReference(t, specB)

	w := &Worker{Name: "long-lived"}
	run := func(spec Spec) *fault.CampaignResult {
		client := newTestServer(t, Options{Retries: 1})
		sub, _, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		w.Server = client.Base
		deadline := time.Now().Add(time.Minute)
		for {
			if _, err := client.Result(context.Background(), sub.ID); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s did not complete", sub.ID)
			}
			if worked, _ := w.RunOne(context.Background()); !worked {
				time.Sleep(2 * time.Millisecond)
			}
		}
		return waitComplete(t, client, sub.ID)
	}

	if res := run(specA); res.Failed != 0 {
		t.Fatalf("first campaign failed %d trials", res.Failed)
	}
	resB := run(specB)
	if resB.Failed != 0 {
		t.Fatalf("reused campaign ID failed %d trials: the worker kept surrendering on its stale cache", resB.Failed)
	}
	assertSameTrials(t, resB, wantB)
}

// acquireRaw grabs one lease over raw HTTP, without worker machinery.
func acquireRaw(t *testing.T, base string) LeaseGrant {
	t.Helper()
	body, err := json.Marshal(AcquireRequest{Worker: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/v1/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire returned HTTP %d", resp.StatusCode)
	}
	var grant LeaseGrant
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	return grant
}

func postStatus(t *testing.T, base, path string, v any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// A sectioned spec dispatches through the same lease/ack protocol as a
// flat one: the coordinator derives the trial count from the
// per-section allocation at admission, workers re-derive the identical
// sectioned plan sequence from the spec, and the remote result matches
// the local sectioned engine trial for trial.
func TestServerSectionedCampaign(t *testing.T) {
	spec := Spec{Source: testSource, Verifier: "exact", Seed: 42, Shards: 3, Sections: true, Coverage: 2}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := c.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.RunSections(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root})
	sub, status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("fresh sectioned submit returned HTTP %d, want 201", status)
	}
	startWorker(t, client, nil)
	startWorker(t, client, nil)

	res := waitComplete(t, client, sub.ID)
	if len(res.Trials) != want.Plan.Total {
		t.Fatalf("server ran %d trials, want the allocation's %d", len(res.Trials), want.Plan.Total)
	}
	assertSameTrials(t, res, want.CampaignResult)
	assertJournal(t, filepath.Join(root, sub.ID), prep.Meta(want.Plan.Total), want.Trials, nil)
}

// A plain campaign must never adopt a sectioned campaign's journals:
// the trial spaces are incompatible. Both admission paths refuse — the
// in-memory name-pinned comparison and, after a coordinator restart,
// the durable journal headers' format fingerprint.
func TestServerSectionedPlainCrossAdmission(t *testing.T) {
	sectioned := Spec{Name: "xver", Source: testSource, Verifier: "exact", Seed: 7, Shards: 2, Sections: true, Coverage: 1}
	sectioned.Normalize()
	if err := sectioned.Validate(); err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	client := newTestServer(t, Options{Dir: root})
	sub, status, err := client.Submit(context.Background(), sectioned)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("sectioned submit returned HTTP %d, want 201", status)
	}
	startWorker(t, client, nil)
	res := waitComplete(t, client, sub.ID)

	plain := Spec{Name: "xver", Source: testSource, Verifier: "exact", Seed: 7, Shards: 2, Trials: len(res.Trials)}
	plain.Normalize()

	// In-memory: same name, plain spec — a different campaign, not a
	// resume.
	_, status, err = client.Submit(context.Background(), plain)
	if status != http.StatusConflict {
		t.Fatalf("plain spec over live sectioned campaign returned HTTP %d, want 409", status)
	}
	if !errors.Is(err, fault.ErrCampaignMismatch) {
		t.Fatalf("plain spec error %v, want ErrCampaignMismatch", err)
	}

	// Durable: a fresh coordinator restoring the sectioned campaign's
	// directory refuses the plain spec on the journal headers alone.
	root2 := t.TempDir()
	copyDir(t, root, root2)
	client2 := newTestServer(t, Options{Dir: root2})
	_, status, err = client2.Submit(context.Background(), plain)
	if status != http.StatusConflict {
		t.Fatalf("plain spec over durable sectioned journals returned HTTP %d, want 409", status)
	}
	if !errors.Is(err, fault.ErrCampaignMismatch) {
		t.Fatalf("plain spec error after restart %v, want ErrCampaignMismatch", err)
	}

	// The reverse direction is refused identically.
	_, status, err = client2.Submit(context.Background(), sectioned)
	if status != http.StatusOK {
		t.Fatalf("sectioned resume after restart returned HTTP %d, want 200", status)
	}
}

// A long-running worker keeps only the workerCacheSize campaigns it
// leased most recently, and a campaign leased again after its eviction
// is rebuilt from its spec and returns trials identical to its first
// lease.
func TestWorkerCacheBounded(t *testing.T) {
	w := &Worker{Name: "long-lived"}
	run := func(client *Client, spec Spec) (string, *fault.CampaignResult) {
		sub, _, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		w.Server = client.Base
		deadline := time.Now().Add(time.Minute)
		for {
			if _, err := client.Result(context.Background(), sub.ID); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s did not complete", sub.ID)
			}
			if worked, _ := w.RunOne(context.Background()); !worked {
				time.Sleep(2 * time.Millisecond)
			}
		}
		if n := len(w.cache); n > workerCacheSize {
			t.Fatalf("worker caches %d campaigns, cap %d", n, workerCacheSize)
		}
		return sub.ID, waitComplete(t, client, sub.ID)
	}

	client := newTestServer(t, Options{})
	first := testSpec("cache-0", 6, 2, 40)
	_, firstMeta := localReference(t, first)
	firstID, firstRes := run(client, first)
	firstKey := workerKey{firstID, firstMeta}
	if w.cache[firstKey] == nil {
		t.Fatalf("campaign %s is not cached under its ID and fingerprint", firstID)
	}
	for i := 1; i <= workerCacheSize; i++ {
		run(client, testSpec(fmt.Sprintf("cache-%d", i), 6, 2, int64(40+i)))
	}
	if len(w.cache) != workerCacheSize || w.cache[firstKey] != nil {
		t.Fatalf("after %d campaigns the worker caches %d, first one cached: %v",
			workerCacheSize+1, len(w.cache), w.cache[firstKey] != nil)
	}

	// A fresh coordinator leases the evicted campaign again.
	id, again := run(newTestServer(t, Options{}), first)
	if id != firstID || w.cache[firstKey] == nil {
		t.Fatalf("re-leased campaign %s (first %s) not rebuilt into the cache", id, firstID)
	}
	assertSameTrials(t, again, firstRes)
}
