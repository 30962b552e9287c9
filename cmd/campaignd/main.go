// Command campaignd is the fault-injection campaign coordinator: it
// accepts campaign specs over HTTP/JSON, partitions each trial space
// into deterministic shards, and dispatches the shards to ipas-worker
// processes under time-bounded leases with durable journal acks. See
// DESIGN.md §12 for the protocol and recovery rules.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipas/internal/campaign"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	dir := flag.String("dir", "campaigns", "journal root directory (one subdirectory per campaign)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "worker lease duration; a worker that misses it loses its shard")
	backoff := flag.Duration("backoff", time.Second, "base quarantine delay; requeue k waits backoff<<(k-1), at most an hour")
	retries := flag.Int("shard-retries", 2, "shard quarantine retries before its unexecuted trials fail (0 = none)")
	quiet := flag.Bool("quiet", false, "suppress operational log lines")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "campaignd: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	if *retries <= 0 {
		*retries = -1 // Options.Retries reads 0 as its default; the flag's 0 means none
	}
	srv, err := campaign.New(campaign.Options{
		Dir:      *dir,
		LeaseTTL: *leaseTTL,
		Backoff:  *backoff,
		Retries:  *retries,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "campaignd: listening on %s, journals in %s\n", *addr, *dir)
	err = hs.ListenAndServe()
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}
}
