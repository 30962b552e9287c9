// Package shard holds the shard vocabulary the campaign coordinator
// (internal/campaign, cmd/campaignd) uses to spread one fault-injection
// campaign over worker processes: the deterministic partition of the
// trial space (Range), the journal file names inside a campaign's
// directory, and the shard lifecycle (StateMachine).
//
// A campaign's trial space is a pure index partition: trial t's plan
// is a pure function of (Seed, t) (see fault.Prepared.Plans), so
// splitting [0, n) into K contiguous ranges changes nothing about what
// any trial executes — only where and when. Each shard journals into
// its own file, and a completed campaign's merged journal is
// byte-identical to the one a local Workers=1 run writes.
package shard

import (
	"fmt"
	"path/filepath"
)

// Range returns shard s's trial-index range [lo, hi) in the
// deterministic contiguous partition of n trials into k shards: ranges
// differ in size by at most one and cover [0, n) exactly.
func Range(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// mergedJournalName is the canonical merged journal inside a campaign's
// journal directory.
const mergedJournalName = "merged.jsonl"

// JournalName returns the file name of shard s's journal inside a
// campaign's journal directory.
func JournalName(s int) string { return fmt.Sprintf("shard-%04d.jsonl", s) }

// MergedJournalPath returns the canonical merged journal's path for a
// journal directory.
func MergedJournalPath(dir string) string { return filepath.Join(dir, mergedJournalName) }
