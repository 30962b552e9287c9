package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"ipas/internal/fault"
	"ipas/internal/interp"
)

// errLeaseGone marks a lease the coordinator revoked (410): the worker
// abandons the shard immediately — another lease owns it now, and any
// further work here would be wasted, never wrong (the coordinator acks
// idempotently and ignores records from dead leases).
var errLeaseGone = errors.New("campaign: lease revoked by coordinator")

// Worker executes leased shards against a coordinator. It rebuilds
// each campaign from its spec (Build + Prepare), verifies that its
// fingerprint matches the coordinator's grant, and streams each
// finished trial back as a durable-acked journal segment.
type Worker struct {
	// Server is the coordinator's base URL (http://host:port).
	Server string
	// Name identifies the worker in progress reports (display only).
	Name string
	// Poll is the idle re-poll interval when no work is available
	// (default 200ms).
	Poll time.Duration
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client

	// BeforeTrial, when non-nil, runs before every trial execution; a
	// non-nil error surrenders the lease with that cause. Chaos tests
	// use it to force deterministic shard failures.
	BeforeTrial func(campaign string, shard, t int) error
	// HeartbeatLimit, when positive, stops heartbeating after that
	// many beats — a chaos hook simulating a partitioned worker that
	// keeps computing but cannot reach the coordinator.
	HeartbeatLimit int

	mu    sync.Mutex
	cache map[workerKey]*workerCampaign
	clock uint64 // lease counter stamping cache use
}

// workerKey identifies a cached campaign: its ID and the coordinator's
// fingerprint of it (LeaseGrant.Meta). An ID reused for another
// campaign — a coordinator restarted on a cleaned directory pins the
// same name to a new spec — is then an ordinary cache miss.
type workerKey struct {
	id   string
	meta fault.JournalMeta
}

// workerCacheSize bounds the prepared campaigns a worker keeps: the
// ones it leased most recently. Each entry pins a golden run, every
// plan of its campaign and the campaign's golden-run snapshots, so a
// long-running worker must not keep every campaign it ever served; an
// evicted campaign leased again is simply rebuilt.
const workerCacheSize = 4

// workerCampaign is a worker-side prepared campaign, cached across
// leases so repeated shards of one campaign share a single golden run.
type workerCampaign struct {
	prep  *fault.Prepared
	plans []interp.FaultPlan
	meta  fault.JournalMeta
	used  uint64 // Worker.clock at its latest lease
}

// Run polls for leases and executes them until ctx is cancelled.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		worked, err := w.RunOne(ctx)
		if err != nil && ctx.Err() == nil {
			// Coordinator unreachable or mid-restart: keep polling.
			worked = false
		}
		if !worked {
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// RunOne acquires and executes at most one lease, reporting whether
// any work was granted.
func (w *Worker) RunOne(ctx context.Context) (bool, error) {
	grant, ok, err := w.acquire(ctx)
	if err != nil || !ok {
		return false, err
	}
	return true, w.runLease(ctx, grant)
}

// acquire asks the coordinator for a shard lease.
func (w *Worker) acquire(ctx context.Context) (LeaseGrant, bool, error) {
	var grant LeaseGrant
	status, err := w.post(ctx, "/api/v1/leases", AcquireRequest{Worker: w.Name}, &grant)
	switch {
	case err != nil:
		return grant, false, err
	case status == http.StatusNoContent:
		return grant, false, nil
	case status != http.StatusOK:
		return grant, false, fmt.Errorf("campaign: acquiring lease: HTTP %d", status)
	}
	return grant, true, nil
}

// prepare returns the worker's prepared substrate for a campaign,
// building it on first use.
func (w *Worker) prepare(ctx context.Context, grant LeaseGrant) (*workerCampaign, error) {
	key := workerKey{grant.Campaign, grant.Meta}
	w.mu.Lock()
	if w.cache == nil {
		w.cache = map[workerKey]*workerCampaign{}
	}
	w.clock++
	if wc := w.cache[key]; wc != nil {
		wc.used = w.clock
		w.mu.Unlock()
		return wc, nil
	}
	w.mu.Unlock()

	c, err := grant.Spec.Build()
	if err != nil {
		return nil, err
	}
	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	wc := &workerCampaign{prep: prep, plans: prep.Plans(grant.Spec.Trials), meta: prep.Meta(grant.Spec.Trials)}
	w.mu.Lock()
	wc.used = w.clock
	w.cache[key] = wc
	for len(w.cache) > workerCacheSize {
		var oldest workerKey
		used := uint64(math.MaxUint64)
		for k, c := range w.cache {
			if c.used < used {
				oldest, used = k, c.used
			}
		}
		delete(w.cache, oldest)
	}
	w.mu.Unlock()
	return wc, nil
}

// runLease executes one leased shard: trials in index order, one
// durable-acked segment per trial, a heartbeat goroutine keeping the
// lease alive, and a final Done (or Fail) segment closing it.
func (w *Worker) runLease(ctx context.Context, grant LeaseGrant) error {
	wc, err := w.prepare(ctx, grant)
	if err != nil {
		// The spec does not build or golden-run here; surrendering
		// with a deterministic cause lets the coordinator quarantine.
		w.post(ctx, "/api/v1/leases/"+grant.Lease+"/records",
			Segment{Fail: fmt.Sprintf("worker cannot prepare campaign: %v", err)}, nil)
		return err
	}
	if wc.meta != grant.Meta {
		// Version or input skew: this worker's build computes a
		// different golden run. Mixing its trials into the campaign
		// would silently corrupt it — refuse the lease.
		w.post(ctx, "/api/v1/leases/"+grant.Lease+"/records",
			Segment{Fail: "campaign fingerprint mismatch: worker build disagrees with coordinator"}, nil)
		return fmt.Errorf("campaign %s: fingerprint mismatch: worker %+v, coordinator %+v", grant.Campaign, wc.meta, grant.Meta)
	}

	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(lctx, grant, cancel)
	}()
	defer func() { cancel(); <-hbDone }()

	settled := make(map[int]bool, len(grant.Settled))
	for _, t := range grant.Settled {
		settled[t] = true
	}
	for t := grant.Lo; t < grant.Hi; t++ {
		if settled[t] {
			continue
		}
		if w.BeforeTrial != nil {
			if err := w.BeforeTrial(grant.Campaign, grant.Shard, t); err != nil {
				_, perr := w.post(ctx, "/api/v1/leases/"+grant.Lease+"/records", Segment{Fail: err.Error()}, nil)
				if perr != nil {
					return perr
				}
				return err
			}
		}
		tr := wc.prep.RunTrial(lctx, t, wc.plans[t])
		if tr.Status == fault.TrialPending {
			// Cancelled: the process is shutting down or the lease was
			// revoked mid-trial. The lease expires on its own.
			return lctx.Err()
		}
		if err := w.sendRecord(lctx, grant, t, tr); err != nil {
			return err
		}
	}
	status, err := w.post(lctx, "/api/v1/leases/"+grant.Lease+"/records", Segment{Done: true}, nil)
	if err != nil {
		return err
	}
	if status == http.StatusGone {
		return errLeaseGone
	}
	if status != http.StatusOK {
		return fmt.Errorf("campaign: closing lease %s: HTTP %d", grant.Lease, status)
	}
	return nil
}

// sendRecord posts one finished trial and waits for the durable ack,
// retrying transient transport errors (the record is idempotent).
func (w *Worker) sendRecord(ctx context.Context, grant LeaseGrant, t int, tr fault.Trial) error {
	seg := Segment{Records: []Record{{T: t, Trial: tr}}}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		var resp SegmentResponse
		status, err := w.post(ctx, "/api/v1/leases/"+grant.Lease+"/records", seg, &resp)
		switch {
		case err != nil:
			lastErr = err
		case status == http.StatusGone:
			return errLeaseGone
		case status == http.StatusOK:
			return nil
		default:
			lastErr = fmt.Errorf("campaign: segment for trial %d: HTTP %d", t, status)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return lastErr
}

// heartbeat keeps the lease alive at TTL/3 until the lease context
// ends; a revoked lease (410) cancels the shard's execution.
func (w *Worker) heartbeat(ctx context.Context, grant LeaseGrant, cancel context.CancelFunc) {
	ivl := grant.TTL / 3
	if ivl <= 0 {
		ivl = time.Second
	}
	beats := 0
	tick := time.NewTicker(ivl)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if w.HeartbeatLimit > 0 && beats >= w.HeartbeatLimit {
			continue // partitioned: computing but unable to report in
		}
		beats++
		status, err := w.post(ctx, "/api/v1/leases/"+grant.Lease+"/heartbeat", struct{}{}, nil)
		if err == nil && status == http.StatusGone {
			cancel()
			return
		}
	}
}

// post sends a JSON request to the coordinator and decodes its JSON
// response into out (when non-nil and the response carries one),
// returning the HTTP status.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	status, _, err := roundTrip(ctx, w.HTTP, http.MethodPost, w.Server+path, in, out)
	return status, err
}
