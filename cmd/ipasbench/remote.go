package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/fault"
)

const (
	// workerPoll is the in-process worker's idle re-poll interval, and
	// resultPoll the client's result poll: both short, so a unit's wall
	// time measures the protocol rather than the poll timers.
	workerPoll = 10 * time.Millisecond
	resultPoll = 10 * time.Millisecond
)

// wire is the http.RoundTripper under both the worker and the client.
// It counts every request, and in a traced unit records one span per
// request by route — plus, for the worker, one span per trial: from the
// Worker.BeforeTrial hook to the POST that acknowledges that trial.
type wire struct {
	base *http.Transport

	mu         sync.Mutex
	sc         scope // where spans go: the current unit's
	trialStart time.Time
	lastAck    time.Time
	acks       completions // acks are the remote path's trial completions
	requests   int
	errors     int
}

func (w *wire) setScope(sc scope) {
	w.mu.Lock()
	w.sc = sc
	w.mu.Unlock()
}

func (w *wire) scope() scope {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sc
}

func (w *wire) beforeTrial(string, int, int) error {
	w.mu.Lock()
	w.trialStart = time.Now()
	w.mu.Unlock()
	return nil
}

func (w *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.base.RoundTrip(req)
	end := time.Now()
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.requests++
	// 425 is the coordinator's "not complete yet" answer to a result
	// poll, part of the protocol rather than a failure, and a request
	// cut short by the unit ending (its worker stopped) failed nothing.
	cancelled := err != nil && req.Context().Err() != nil
	if !cancelled && (err != nil || (status/100 != 2 && status != http.StatusTooEarly)) {
		w.errors++
	}
	route := routeOf(req)
	parent := spanOf(req.Context())
	if route == "records" {
		route = "close" // a segment closing or surrendering the lease
		if !w.trialStart.IsZero() {
			route = "ack"
			w.sc.tr.add(parent, "fault.run_trial", w.trialStart, start)
			w.trialStart = time.Time{}
			if w.sc.traced() {
				w.acks.mark()
			}
		}
		w.lastAck = end
	}
	w.sc.tr.add(parent, "campaign.http."+route, start, end)
	return resp, err
}

// routeOf names a coordinator API request the worker or client makes.
func routeOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/api/v1/campaigns":
		return "submit"
	case p == "/api/v1/leases":
		return "acquire"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/records"):
		return "records"
	case strings.HasSuffix(p, "/result"):
		return "result"
	}
	return "other"
}

// runRemote is remote-fft: short FFT trials through an in-process
// coordinator served over loopback, one in-process worker and a client
// that submits and waits — every trial pays one durable-acked POST.
func runRemote(b *bench) error {
	pg, err := b.setup("FFT", false)
	if err != nil {
		return err
	}
	srvDir := filepath.Join(b.dir, "server")
	srv, err := campaign.New(campaign.Options{Dir: srvDir})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()
	link := &wire{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer link.base.CloseIdleConnections()
	hc := &http.Client{Transport: link}
	client := &campaign.Client{Base: base, HTTP: hc}
	worker := &campaign.Worker{Server: base, Name: "ipasbench", HTTP: hc, BeforeTrial: link.beforeTrial}

	var (
		first      *fault.CampaignResult
		tails      []float64
		workerErrs int
	)
	b.measure(pg, b.sz.remoteUnits, func(u, pass int, sc scope) (time.Duration, int, error) {
		link.acks.reset()
		link.setScope(sc)
		defer link.setScope(scope{})
		// The worker runs only while its unit does, so nothing polls the
		// coordinator during the set-ups timed between units.
		wctx, stop := context.WithCancel(b.ctx)
		errs := make(chan int, 1)
		go func() { errs <- work(wctx, worker, sc) }()
		defer func() {
			stop()
			workerErrs += <-errs
		}()
		s := campaign.Spec{
			Name: fmt.Sprintf("ipasbench-%d-%d-%t", u, pass, sc.traced()), Workload: pg.spec.Name, Input: pg.spec.Input,
			Trials: b.sz.remoteTrials, Seed: b.unitSeed(u), Shards: b.sz.remoteShards,
		}
		t0 := time.Now()
		sp := sc.begin("campaign.submit")
		sub, _, err := client.Submit(withSpan(b.ctx, sp.id()), s)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		// No span covers the wait itself: the client sleeps between polls,
		// and only the polls are calls into the coordinator.
		res, err := client.WaitResult(withSpan(b.ctx, sc.parent), sub.ID, resultPoll, nil)
		end := time.Now()
		if err != nil {
			return 0, 0, err
		}
		b.tally(res)
		switch {
		case sc.traced():
			link.mu.Lock()
			tails = append(tails, end.Sub(link.lastAck).Seconds())
			link.mu.Unlock()
			if pass == 0 {
				b.mix.add(res, pg.prep.Population)
			}
			b.observe("fault.journal_bytes", dirBytes(filepath.Join(srvDir, sub.ID)))
		case u == 0 && pass == 0:
			first = res
		}
		return end.Sub(t0), res.Completed, nil
	})
	b.attempted += link.requests
	b.failed += link.errors + workerErrs

	if b.tr != nil {
		ack := b.tr.durations("campaign.http.ack")
		leases := b.tr.durations("campaign.run_one")
		trials := b.tr.durations("fault.run_trial")
		b.set("campaign.submit_ms", 1e3*median(b.tr.durations("campaign.submit")))
		b.set("campaign.acquire_ms_p50", 1e3*median(b.tr.durations("campaign.http.acquire")))
		b.set("campaign.ack_ms_p50", 1e3*median(ack))
		b.set("campaign.ack_ms_p99", 1e3*percentile(ack, 99))
		b.set("campaign.ack_share", ratio(sum(ack), sum(leases)))
		b.set("campaign.lease_s_p50", median(leases))
		b.set("campaign.idle_polls", float64(len(b.tr.durations("campaign.idle_poll"))))
		b.set("campaign.requests", float64(len(b.tr.durationsPrefix("campaign.http."))))
		b.set("campaign.http_errors", float64(link.errors))
		b.set("campaign.result_tail_ms", 1e3*median(tails))
		b.set("fault.trial_busy_frac", ratio(sum(trials), b.traced))
		b.set("fault.completion_gap_ms_p99", 1e3*percentile(link.acks.gaps, 99))
	}
	if first == nil {
		return nil
	}
	// Plans are one sequential stream, so the remote campaign's leading
	// trials equal a local single-worker campaign of that many trials.
	k := min(b.sz.matchRemote, len(first.Trials))
	local, err := (&campaign.Spec{Workload: pg.spec.Name, Input: pg.spec.Input, Seed: b.unitSeed(0)}).Build()
	if err == nil {
		local.Workers = 1
		var res *fault.CampaignResult
		res, err = local.RunContext(b.ctx, k)
		if err == nil && !sameTrials(first.Trials[:k], res.Trials) {
			err = errors.New("trials differ")
		}
	}
	b.check(err == nil, "remote-fft: first %d trials against a local Workers=1 run: %v", k, err)
	b.checkPinned(pin{Counts: first.Counts})
	return nil
}

// work runs the worker's lease loop until ctx ends and returns how many
// leases failed for another reason.
func work(ctx context.Context, w *campaign.Worker, sc scope) int {
	errs := 0
	for ctx.Err() == nil {
		sp := sc.begin("campaign.run_one")
		worked, err := w.RunOne(withSpan(ctx, sp.id()))
		if err != nil && ctx.Err() == nil {
			errs++
		}
		if !worked {
			sp.rename("campaign.idle_poll")
		}
		sp.end()
		if !worked {
			select {
			case <-time.After(workerPoll):
			case <-ctx.Done():
			}
		}
	}
	return errs
}
