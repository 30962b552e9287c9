package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ipas/internal/fault"
)

// Options configures a coordinator.
type Options struct {
	// Dir is the root journal directory; each campaign owns Dir/<id>/
	// and journals into its one file, fault.CampaignJournal, in the
	// format a local campaign writes, so a coordinator restart resumes
	// from it and a local run resumes it too.
	Dir string
	// LeaseTTL bounds how long a worker may hold a shard without
	// heartbeating (default 15s). An expired lease requeues the shard.
	LeaseTTL time.Duration
	// Backoff is the base quarantine delay after a failed or expired
	// lease: requeue k waits fault.BackoffDelay(Backoff, k), which
	// clamps at fault.MaxBackoff so an arbitrarily large retry budget
	// cannot overflow the shift (default 1s).
	Backoff time.Duration
	// Retries bounds shard quarantine retries: 0 selects
	// defaultShardRetries and a negative value none. After the budget
	// is exhausted the shard's unexecuted trials are recorded as
	// TrialFailed and its siblings continue.
	Retries int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// defaultShardRetries is the shard retry budget a zero Options.Retries
// selects.
const defaultShardRetries = 2

// lease is one worker's time-bounded claim on one shard.
type lease struct {
	id      string
	st      *state
	shard   int
	worker  string
	expires time.Time
}

// state is one admitted campaign.
type state struct {
	id   string
	spec Spec
	n, k int
	dir  string
	meta fault.JournalMeta // the journal header, as a local run writes it
	res  *fault.CampaignResult
	sm   *shardMachine

	journal      *fault.Journal
	jmu          sync.Mutex // journal I/O; see Server's locking notes
	failedShard  []bool     // guarded by jmu: shard terminally failed, its records final
	backoffUntil []time.Time
	leaseOf      []*lease

	restored  int  // trials recovered from the durable journal on admit
	recovered bool // a corrupt journal was deleted on admit
	complete  bool
}

// Server is the campaign coordinator: it admits specs, restores their
// durable journals, and dispatches shards to workers under leases. One
// mutex (mu) serializes campaign and lease state, but the hot path's
// journal appends and fsyncs run outside it under the campaign's
// journal lock (state.jmu), so one slow fsync never holds up
// heartbeats or other campaigns' segments. The durable-ack contract
// survives the split because it is ordered, not locked: a segment is
// journaled and fsynced first, and only then — back under mu, with the
// lease re-validated — settled in memory and acknowledged.
//
// Lock order: mu before jmu, never the reverse. The only path that
// holds both is rare and cold (terminal shard failure); phase-2
// segment I/O holds jmu alone.
//
// Leases expire lazily: every handler takes mu through lock, which
// first revokes the leases whose holders missed their TTL, so a dead
// worker's shard moves on at the next request of any kind — a worker's
// acquire, or a client's progress or result poll — and no goroutine
// runs between requests.
type Server struct {
	opts    Options
	ttl     time.Duration
	backoff time.Duration
	retries int
	mux     *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*state
	ids       []string // sorted campaign IDs: deterministic grant order
	leases    map[string]*lease
	leaseSeq  int
	closed    bool
}

// New returns a coordinator rooted at opts.Dir; Close closes its
// journals.
func New(opts Options) (*Server, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("campaign: coordinator needs a journal directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating journal root: %w", err)
	}
	s := &Server{
		opts:      opts,
		ttl:       opts.LeaseTTL,
		backoff:   opts.Backoff,
		retries:   opts.Retries,
		campaigns: map[string]*state{},
		leases:    map[string]*lease{},
	}
	if s.ttl <= 0 {
		s.ttl = 15 * time.Second
	}
	if s.backoff <= 0 {
		s.backoff = time.Second
	}
	switch {
	case s.retries < 0:
		s.retries = 0
	case s.retries == 0:
		s.retries = defaultShardRetries
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleProgress)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /api/v1/leases", s.handleAcquire)
	s.mux.HandleFunc("POST /api/v1/leases/{lease}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /api/v1/leases/{lease}/records", s.handleRecords)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close closes every open journal. In-flight campaigns stay durable on
// disk: a new coordinator on the same directory resumes them when their
// specs are resubmitted.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, st := range s.campaigns {
		closeJournal(st)
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ---- admission ----

// handleSubmit admits a campaign spec. The HTTP status classifies the
// admission: 201 fresh, 200 resumed from the durable journal (a torn
// tail truncated silently), 202 with a corrupt journal deleted and the
// campaign re-run from trial 0, 409 when the campaign directory belongs
// to a different campaign or an older build's layout, 423 when another
// process holds the journal lock.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := spec.ID()

	// Build and golden-run outside the lock: Prepare is the expensive
	// step and needs no coordinator state. A concurrent duplicate
	// submission wastes one golden run and then converges below.
	c, err := spec.Build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prep, err := c.Prepare(r.Context())
	if err != nil {
		httpError(w, http.StatusBadRequest, "preparing campaign: %v", err)
		return
	}
	if spec.Sections {
		// The per-section allocation, not the submitter, sets the
		// trial count. Derive it before meta, plans, and shard ranges
		// so the coordinator, journals, and every worker agree on the
		// same sectioned trial space.
		spec.Trials = prep.SectionTotal()
		if spec.Trials == 0 {
			httpError(w, http.StatusBadRequest, "sectioned campaign has no injectable sections")
			return
		}
		if spec.Trials > maxTrials {
			httpError(w, http.StatusBadRequest, "sectioned campaign allocates %d trials, above the limit of %d", spec.Trials, maxTrials)
			return
		}
		if spec.Shards > spec.Trials {
			spec.Shards = spec.Trials
		}
	}
	meta := prep.Meta(spec.Trials)

	s.lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	if st := s.campaigns[id]; st != nil {
		// Already admitted. A name-pinned spec whose content drifted
		// from the admitted campaign is a mismatch, not a resume.
		if st.meta != meta {
			httpError(w, http.StatusConflict, "campaign %s: %v", id, fault.ErrCampaignMismatch)
			return
		}
		writeJSON(w, http.StatusOK, SubmitResponse{ID: id, Status: statusOf(st), Restored: st.restored})
		return
	}

	st, err := s.admitLocked(id, spec, prep, meta)
	if err != nil {
		switch {
		case errors.Is(err, fault.ErrCampaignMismatch):
			httpError(w, http.StatusConflict, "campaign %s: %v", id, err)
		case errors.Is(err, fault.ErrJournalLocked):
			httpError(w, http.StatusLocked, "campaign %s: %v", id, err)
		default:
			httpError(w, http.StatusInternalServerError, "campaign %s: %v", id, err)
		}
		return
	}
	status := http.StatusCreated
	switch {
	case st.recovered:
		status = http.StatusAccepted
	case st.restored > 0:
		status = http.StatusOK
	}
	s.logf("campaign %s admitted: %d trials, %d shards, %d restored, corrupt journal deleted: %t",
		id, st.n, st.k, st.restored, st.recovered)
	writeJSON(w, status, SubmitResponse{ID: id, Status: statusOf(st), Restored: st.restored})
}

// admitLocked registers a campaign and restores its journal: a torn
// tail is truncated on open, a corrupt journal is deleted and the
// campaign re-run, and a valid journal of a different campaign, or an
// older build's layout, is never clobbered.
func (s *Server) admitLocked(id string, spec Spec, prep *fault.Prepared, meta fault.JournalMeta) (*state, error) {
	st := &state{
		id:           id,
		spec:         spec,
		n:            spec.Trials,
		k:            spec.Shards,
		dir:          filepath.Join(s.opts.Dir, id),
		meta:         meta,
		res:          prep.NewResult(prep.Plans(spec.Trials)),
		sm:           newShardMachine(spec.Shards),
		failedShard:  make([]bool, spec.Shards),
		backoffUntil: make([]time.Time, spec.Shards),
		leaseOf:      make([]*lease, spec.Shards),
	}
	if err := openJournal(st); err != nil {
		return nil, err
	}
	// Shards whose whole range is already durable owe no execution.
	for sh := 0; sh < st.k; sh++ {
		if st.settledIn(sh) == rangeLen(st.n, st.k, sh) {
			st.sm.settle(sh)
		}
	}
	s.campaigns[id] = st
	s.ids = append(s.ids, id)
	sort.Strings(s.ids)
	s.maybeCompleteLocked(st)
	return st, nil
}

// openJournal opens the campaign's journal (fault.OpenCampaignJournal)
// and restores its trials, classifying damage: a corrupt journal is
// deleted and the campaign re-runs from trial 0 (every lost record is
// re-derived deterministically); a valid journal of a different
// campaign or an older build's layout (mismatch), or a journal another
// process holds (locked), fails admission and stays untouched. The
// shard partition is not part of the header, so a name-pinned campaign
// resumes at any shard count.
func openJournal(st *state) error {
	j, err := fault.OpenCampaignJournal(st.dir)
	if errors.Is(err, fault.ErrJournalCorrupt) {
		if err := os.Remove(filepath.Join(st.dir, fault.CampaignJournal)); err != nil {
			return err
		}
		st.recovered = true
		j, err = fault.OpenCampaignJournal(st.dir)
	}
	if err != nil {
		return err
	}
	prev, err := j.Begin(st.meta)
	if err != nil {
		j.Close()
		return err
	}
	st.journal = j
	for t, tr := range prev {
		st.res.Trials[t] = tr
	}
	st.restored = len(prev)
	return nil
}

// ---- lease dispatch ----

// handleAcquire grants the next runnable shard to a worker (200), or
// reports none available (204). Grant order is deterministic: campaigns
// by sorted ID, shards by index.
func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding acquire request: %v", err)
		return
	}
	now := s.lock()
	defer s.mu.Unlock()
	if s.closed {
		httpError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	for _, id := range s.ids {
		st := s.campaigns[id]
		if st.complete {
			continue
		}
		s.requeueElapsedLocked(st, now)
		for sh := 0; sh < st.k; sh++ {
			if st.sm.state(sh) != shardQueued {
				continue
			}
			attempt := st.sm.acquire(sh)
			s.leaseSeq++
			l := &lease{
				id:      fmt.Sprintf("L%06d", s.leaseSeq),
				st:      st,
				shard:   sh,
				worker:  req.Worker,
				expires: now.Add(s.ttl),
			}
			s.leases[l.id] = l
			st.leaseOf[sh] = l
			lo, hi := shardRange(st.n, st.k, sh)
			grant := LeaseGrant{
				Lease:    l.id,
				Campaign: st.id,
				Spec:     st.spec,
				Shard:    sh,
				Shards:   st.k,
				Lo:       lo,
				Hi:       hi,
				Attempt:  attempt,
				TTL:      s.ttl,
				Meta:     st.meta,
				Settled:  st.settledIndices(sh),
			}
			s.logf("lease %s: shard %d/%d of %s -> worker %q (attempt %d)", l.id, sh, st.k, st.id, req.Worker, attempt)
			writeJSON(w, http.StatusOK, grant)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHeartbeat extends a live lease (204) or reports it gone (410):
// the worker must abandon the shard, which another lease now owns or
// will own.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("lease")
	now := s.lock()
	defer s.mu.Unlock()
	l := s.leases[id]
	if l == nil {
		httpError(w, http.StatusGone, "lease %s is no longer held", id)
		return
	}
	l.expires = now.Add(s.ttl)
	w.WriteHeader(http.StatusNoContent)
}

// handleRecords ingests a journal segment for a leased shard. The
// durable-ack contract is strictly ordered: fresh records are journaled
// and fsynced first, and only then settled in memory and acknowledged.
// A failed journal write therefore leaves the trial pending on the
// coordinator, so the worker's retry re-journals it instead of hitting
// the idempotent-resend path and collecting a durable ack for a record
// that never reached disk. Re-sent records for already-settled trials
// ack idempotently without re-journaling. The fsync runs outside the
// coordinator mutex — under the campaign's journal lock — so a slow
// disk never blocks heartbeats or other campaigns' segments. A record
// that is not a settled trial (pending, an unknown status, or a
// completed one with an outcome out of range) fails the whole segment
// with 400 before anything is journaled: once durable, it would come
// back on every restart and local resume.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("lease")
	var seg Segment
	if err := json.NewDecoder(r.Body).Decode(&seg); err != nil {
		httpError(w, http.StatusBadRequest, "decoding segment: %v", err)
		return
	}

	// Phase 1, coordinator lock: validate the lease and the segment,
	// and snapshot which records are not yet settled.
	s.lock()
	l := s.leases[id]
	if l == nil {
		s.mu.Unlock()
		httpError(w, http.StatusGone, "lease %s is no longer held", id)
		return
	}
	st, sh := l.st, l.shard
	lo, hi := shardRange(st.n, st.k, sh)
	for _, rec := range seg.Records {
		if rec.T < lo || rec.T >= hi {
			s.mu.Unlock()
			httpError(w, http.StatusBadRequest, "record for trial %d is outside lease %s's range [%d,%d)", rec.T, id, lo, hi)
			return
		}
		if err := fault.CheckSettled(rec.Trial); err != nil {
			s.mu.Unlock()
			httpError(w, http.StatusBadRequest, "record for trial %d: %v", rec.T, err)
			return
		}
	}
	var fresh []Record
	for _, rec := range seg.Records {
		if st.res.Trials[rec.T].Status == fault.TrialPending {
			fresh = append(fresh, rec)
		}
	}
	j := st.journal
	s.mu.Unlock()

	// Phase 2, journal lock only: make the fresh records durable.
	// failedShard fences zombie leases — once a shard terminally fails,
	// a late segment may not append after its TrialFailed records and
	// flip the journal's last-wins restore against the in-memory
	// verdicts.
	if len(fresh) > 0 {
		st.jmu.Lock()
		retired := st.failedShard[sh] || j == nil
		var jerr error
		if !retired {
			for _, rec := range fresh {
				if jerr = j.Record(rec.T, rec.Trial); jerr != nil {
					break
				}
			}
			if jerr == nil {
				// The durable-ack contract: fsync before the response exists.
				jerr = j.Sync()
			}
		}
		st.jmu.Unlock()
		if retired {
			httpError(w, http.StatusGone, "lease %s: shard %d is no longer accepting records", id, sh)
			return
		}
		if jerr != nil {
			httpError(w, http.StatusInternalServerError, "journaling segment for lease %s: %v", id, jerr)
			return
		}
	}

	// Phase 3, coordinator lock: the records are durable — settle them
	// in memory and run the lease bookkeeping.
	now := s.lock()
	defer s.mu.Unlock()
	if s.leases[id] != l {
		// The lease died while the segment was being made durable. The
		// records are on disk; the shard's next attempt re-derives them
		// deterministically (or a restart's restore recovers them), so
		// dropping the in-memory settle keeps memory and journal
		// convergent.
		httpError(w, http.StatusGone, "lease %s is no longer held", id)
		return
	}
	acked := 0
	for _, rec := range seg.Records {
		if st.res.Trials[rec.T].Status == fault.TrialPending {
			st.res.Trials[rec.T] = rec.Trial
		}
		acked++
	}
	l.expires = now.Add(s.ttl) // a progressing worker is a live worker

	switch {
	case seg.Fail != "":
		s.releaseLocked(l, seg.Fail, now)
	case seg.Done:
		if st.settledIn(l.shard) != hi-lo {
			httpError(w, http.StatusBadRequest, "lease %s closed with %d/%d trials settled", id, st.settledIn(l.shard), hi-lo)
			return
		}
		delete(s.leases, l.id)
		st.leaseOf[l.shard] = nil
		st.sm.complete(l.shard)
		s.logf("lease %s: shard %d/%d of %s complete", l.id, l.shard, st.k, st.id)
		s.maybeCompleteLocked(st)
	}
	writeJSON(w, http.StatusOK, SegmentResponse{Acked: acked})
}

// lock takes mu for a handler and first revokes every lease whose
// holder missed its TTL, quarantining (or terminally failing) the shard
// exactly as an explicit worker failure would. It returns the time the
// leases were judged by.
func (s *Server) lock() time.Time {
	s.mu.Lock()
	now := time.Now()
	for _, l := range s.leases {
		if !l.expires.After(now) {
			s.releaseLocked(l, "lease expired (missed heartbeat)", now)
		}
	}
	return now
}

// requeueElapsedLocked makes quarantined shards whose backoff delay has
// passed runnable again.
func (s *Server) requeueElapsedLocked(st *state, now time.Time) {
	for sh := 0; sh < st.k; sh++ {
		if st.sm.state(sh) == shardBackoff && !st.backoffUntil[sh].After(now) {
			st.sm.requeue(sh)
		}
	}
}

// releaseLocked ends a lease on failure (expiry or an explicit worker
// surrender): within the retry budget the shard is quarantined with
// exponential backoff; beyond it the shard terminally fails and its
// unexecuted trials are recorded as TrialFailed — siblings never
// notice. The cause string must be deterministic (no wall-clock, no
// worker identity): it lands verbatim in TrialFailed records.
func (s *Server) releaseLocked(l *lease, cause string, now time.Time) {
	delete(s.leases, l.id)
	st := l.st
	if st.leaseOf[l.shard] != l {
		return // an older revoked lease racing its replacement
	}
	st.leaseOf[l.shard] = nil
	attempt := st.sm.attemptsOf(l.shard)
	if attempt > s.retries {
		s.failShardLocked(st, l.shard, attempt, cause)
		st.sm.fail(l.shard)
		s.logf("lease %s: shard %d/%d of %s failed after %d attempts: %s", l.id, l.shard, st.k, st.id, attempt, cause)
		s.maybeCompleteLocked(st)
		return
	}
	st.sm.quarantine(l.shard)
	st.backoffUntil[l.shard] = now.Add(fault.BackoffDelay(s.backoff, attempt))
	s.logf("lease %s: shard %d/%d of %s quarantined (attempt %d): %s", l.id, l.shard, st.k, st.id, attempt, cause)
}

// failShardLocked records a terminally quarantined shard's unexecuted
// trials as TrialFailed with a deterministic message ("shard S/K
// quarantined after N attempts: cause"). Trials settled by earlier
// attempts keep their real results.
func (s *Server) failShardLocked(st *state, sh, attempts int, cause string) {
	lo, hi := shardRange(st.n, st.k, sh)
	msg := fmt.Sprintf("shard %d/%d quarantined after %d attempts: %s", sh, st.k, attempts, cause)
	// Taking the journal lock (mu → jmu, the cold direction) retires
	// the shard: a zombie lease's segment that was mid-fsync either
	// finished before this point — those trials are pending in memory
	// (its settle was refused) and are overwritten below, after its
	// records in the journal — or observes failedShard and is refused.
	// Either way nothing of this shard appends after these TrialFailed
	// records, so the journal's last-wins restore always agrees with
	// the in-memory verdicts.
	st.jmu.Lock()
	defer st.jmu.Unlock()
	st.failedShard[sh] = true
	for t := lo; t < hi; t++ {
		tr := st.res.Trials[t]
		if tr.Status != fault.TrialPending {
			continue
		}
		// The pending slot NewResult filled holds the plan's Bit and
		// Index, and Site -1.
		tr.Status, tr.Err, tr.Attempts = fault.TrialFailed, msg, attempts
		st.res.Trials[t] = tr
		// Best-effort journaling: the verdict is re-derived on resume
		// if it never reached disk.
		if st.journal != nil {
			st.journal.Record(t, tr)
		}
	}
	if st.journal != nil {
		st.journal.Sync()
	}
}

// maybeCompleteLocked finalizes a campaign once every shard is
// terminal and closes its journal, which then holds every trial under
// the header a local run of the campaign writes: a local campaign
// opened on it restores every trial and runs none.
func (s *Server) maybeCompleteLocked(st *state) {
	if st.complete || !st.sm.allTerminal() {
		return
	}
	st.res.Finalize()
	closeJournal(st)
	st.complete = true
	s.logf("campaign %s complete: %d/%d trials completed, %d failed", st.id, st.res.Completed, st.n, st.res.Failed)
}

// ---- inspection ----

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.lock()
	defer s.mu.Unlock()
	out := make([]CampaignSummary, 0, len(s.ids))
	for _, id := range s.ids {
		st := s.campaigns[id]
		done, failed := 0, 0
		for t := range st.res.Trials {
			if st.res.Trials[t].Status != fault.TrialPending {
				done++
			}
			if st.res.Trials[t].Status == fault.TrialFailed {
				failed++
			}
		}
		out = append(out, CampaignSummary{ID: id, Status: statusOf(st), Trials: st.n, Done: done, Failed: failed})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.lock()
	defer s.mu.Unlock()
	st := s.campaigns[r.PathValue("id")]
	if st == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.progressLocked(st))
}

func (s *Server) progressLocked(st *state) Progress {
	st.res.Finalize()
	p := Progress{
		ID:         st.id,
		Status:     statusOf(st),
		Trials:     st.n,
		Done:       st.res.Completed + st.res.Failed,
		Completed:  st.res.Completed,
		Failed:     st.res.Failed,
		Pending:    st.res.Pending,
		Deadlocked: st.res.Deadlocks,
		Counts:     st.res.Counts,
		GoldenDyn:  st.res.GoldenDyn,
		Shards:     make([]ShardStatus, st.k),
	}
	if summary := st.res.ErrorSummary(); summary != "" && st.res.Failed > 0 {
		p.Errors = summary
	}
	for sh := 0; sh < st.k; sh++ {
		lo, hi := shardRange(st.n, st.k, sh)
		ss := ShardStatus{
			State:    st.sm.state(sh).String(),
			Attempts: st.sm.attemptsOf(sh),
			Lo:       lo,
			Hi:       hi,
			Settled:  st.settledIn(sh),
		}
		if l := st.leaseOf[sh]; l != nil {
			ss.Worker = l.worker
		}
		p.Shards[sh] = ss
	}
	return p
}

// handleResult returns the finalized campaign result, or 425 while
// shards are still outstanding.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.lock()
	defer s.mu.Unlock()
	st := s.campaigns[r.PathValue("id")]
	if st == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	if !st.complete {
		httpError(w, http.StatusTooEarly, "campaign %s is still running", st.id)
		return
	}
	writeJSON(w, http.StatusOK, ResultResponse{ID: st.id, GoldenDyn: st.res.GoldenDyn, Trials: st.res.Trials})
}

// ---- helpers ----

func statusOf(st *state) string {
	if st.complete {
		return "complete"
	}
	return "running"
}

// settledIn counts shard sh's settled trials.
func (st *state) settledIn(sh int) int {
	lo, hi := shardRange(st.n, st.k, sh)
	n := 0
	for t := lo; t < hi; t++ {
		if st.res.Trials[t].Status != fault.TrialPending {
			n++
		}
	}
	return n
}

// settledIndices lists shard sh's settled trial indices in order.
func (st *state) settledIndices(sh int) []int {
	lo, hi := shardRange(st.n, st.k, sh)
	var out []int
	for t := lo; t < hi; t++ {
		if st.res.Trials[t].Status != fault.TrialPending {
			out = append(out, t)
		}
	}
	return out
}

func rangeLen(n, k, sh int) int {
	lo, hi := shardRange(n, k, sh)
	return hi - lo
}

func closeJournal(st *state) {
	if st.journal != nil {
		st.journal.Close()
		st.journal = nil
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}
