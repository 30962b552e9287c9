//go:build unix

package fault

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// Two concurrent campaigns must never interleave writes into one
// journal: the second opener is rejected with ErrJournalLocked, and
// the lock dies with the first journal's Close.
func TestJournalLockRejectsConcurrentOpener(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(path)
	if err == nil {
		t.Fatal("second opener acquired a locked journal")
	}
	if !errors.Is(err, ErrJournalLocked) {
		t.Fatalf("second opener failed with %v, want ErrJournalLocked", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("lock error does not name the journal: %v", err)
	}

	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal stayed locked after Close: %v", err)
	}
	j2.Close()
}

// MaxRetries semantics: the zero value selects DefaultMaxRetries (so a
// bare Campaign literal keeps its safety net), and NoRetries requests
// genuinely zero retries — a first-attempt failure is terminal.
func TestCampaignNoRetriesSentinel(t *testing.T) {
	p, verify := compileCampaignProg(t)
	const n = 12

	c := &Campaign{Prog: p, Verify: verify, Seed: 17, MaxRetries: NoRetries}
	c.beforeTrial = func(trial, attempt int) {
		if trial == 5 {
			panic("no-retry panic")
		}
	}
	res, err := c.RunContext(context.Background(), n)
	if err == nil {
		t.Fatal("failing trial under NoRetries reported no error")
	}
	tr := res.Trials[5]
	if tr.Status != TrialFailed || tr.Attempts != 1 {
		t.Fatalf("NoRetries trial recorded as %+v, want failed after exactly 1 attempt", tr)
	}
	if res.Completed != n-1 {
		t.Fatalf("completed=%d, want %d", res.Completed, n-1)
	}
}

func TestRetriesResolution(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultMaxRetries}, // zero value keeps the safety net
		{NoRetries, 0},         // explicit opt-out
		{-7, 0},                // any negative means none
		{5, 5},
	} {
		if got := retries(tc.in); got != tc.want {
			t.Errorf("retries(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct{ in, want int }{
		{0, NoRetries}, // a CLI literal 0 means "no retries", not "default"
		{-1, NoRetries},
		{2, 2},
	} {
		if got := ExplicitRetries(tc.in); got != tc.want {
			t.Errorf("ExplicitRetries(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
