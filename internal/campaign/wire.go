package campaign

import (
	"time"

	"ipas/internal/fault"
)

// Wire types of the coordinator's HTTP/JSON protocol. Everything a
// worker needs to execute a shard rides in the LeaseGrant; everything
// the coordinator needs to make a trial durable rides in a Segment.

// SubmitResponse reports how the coordinator admitted a campaign. The
// HTTP status carries the recovery classification — 201 fresh, 200
// resumed from the durable journal (a torn tail truncated), 202 with a
// corrupt journal deleted and the campaign re-run from trial 0, 409
// when the directory holds a different campaign's journal or an older
// build's shard journals (fault.ErrCampaignMismatch), 423 when another
// process holds the journal lock (fault.ErrJournalLocked).
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "running" or "complete"
	// Restored counts trials recovered from the durable journal.
	Restored int `json:"restored"`
}

// ShardStatus is one shard's dispatch state in a progress report.
type ShardStatus struct {
	State    string `json:"state"` // queued, running, backoff, done or failed
	Attempts int    `json:"attempts"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Settled  int    `json:"settled"`
	Worker   string `json:"worker,omitempty"` // current lease holder
}

// Progress is a live campaign rollup: trial tallies campaign-wide and
// dispatch state per shard. Proportions over completed trials are the
// consumer's to compute from Counts/Done — the coordinator never
// reports a proportion over anything else.
type Progress struct {
	ID         string                 `json:"id"`
	Status     string                 `json:"status"` // "running" or "complete"
	Trials     int                    `json:"trials"`
	Done       int                    `json:"done"` // settled: completed + failed
	Completed  int                    `json:"completed"`
	Failed     int                    `json:"failed"`
	Pending    int                    `json:"pending"`
	Deadlocked int                    `json:"deadlocked"`
	Counts     [fault.NumOutcomes]int `json:"counts"`
	GoldenDyn  int64                  `json:"golden_dyn"`
	Shards     []ShardStatus          `json:"shards"`
	Errors     string                 `json:"errors,omitempty"` // ErrorSummary of a degraded campaign
}

// LeaseGrant hands one shard to one worker for a bounded time. The
// worker must heartbeat before TTL elapses, every time, or the
// coordinator revokes the lease and requeues the shard.
type LeaseGrant struct {
	Lease    string        `json:"lease"`
	Campaign string        `json:"campaign"`
	Spec     Spec          `json:"spec"`
	Shard    int           `json:"shard"`
	Shards   int           `json:"shards"`
	Lo       int           `json:"lo"`
	Hi       int           `json:"hi"`
	Attempt  int           `json:"attempt"`
	TTL      time.Duration `json:"ttl_ns"`
	// Meta is the coordinator's campaign fingerprint; the worker
	// refuses the lease if its own build disagrees (version or input
	// skew would otherwise silently mix incompatible trials).
	Meta fault.JournalMeta `json:"meta"`
	// Settled lists trial indices in [Lo, Hi) already durable at the
	// coordinator; the worker skips them (resume without re-execution).
	Settled []int `json:"settled,omitempty"`
}

// Record is one finished trial in a journal segment.
type Record struct {
	T     int         `json:"t"`
	Trial fault.Trial `json:"trial"`
}

// Segment is a worker's streamed batch for its leased shard: zero or
// more finished trials, optionally closing the shard (Done) or
// surrendering it (Fail, a deterministic cause string — the
// coordinator quarantines and requeues).
type Segment struct {
	Records []Record `json:"records,omitempty"`
	Done    bool     `json:"done,omitempty"`
	Fail    string   `json:"fail,omitempty"`
}

// SegmentResponse acknowledges a segment: Acked records are durable on
// the coordinator's disk (fsynced before this response was written).
type SegmentResponse struct {
	Acked int `json:"acked"`
}

// AcquireRequest asks for work; the worker name appears in progress
// reports (never in journal or report content — worker identity is
// not deterministic).
type AcquireRequest struct {
	Worker string `json:"worker"`
}

// CampaignSummary is one row of the campaign listing.
type CampaignSummary struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Trials int    `json:"trials"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
}

// ResultResponse carries a completed campaign's trials; the client
// rebuilds the fault.CampaignResult with Finalize, so the aggregate
// statistics are recomputed, never trusted over the wire.
type ResultResponse struct {
	ID        string        `json:"id"`
	GoldenDyn int64         `json:"golden_dyn"`
	Trials    []fault.Trial `json:"trials"`
}
