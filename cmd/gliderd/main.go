// Command gliderd serves the repository's simulation engine over HTTP: a
// backpressured JSON API for simulation cells and prediction queries, with
// each worker running one at a time (see internal/server and DESIGN.md §11).
//
// Quickstart:
//
//	gliderd -addr :8080 &
//	curl -s localhost:8080/v1/catalog
//	curl -s -X POST localhost:8080/v1/sim \
//	  -d '{"workload":"omnetpp","policy":"glider","accesses":200000,"seed":42}'
//
// SIGINT/SIGTERM triggers a graceful drain: running simulations finish,
// queued and new requests are rejected with 503, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queueDepth := flag.Int("queue", 64, "bounded job queue depth (full queue answers 429)")
	workers := flag.Int("workers", 0, "workers, each running one job at a time (0 = one per CPU)")
	cacheEntries := flag.Int("cache", 256, "result cache entries")
	defaultTimeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline")
	maxAccesses := flag.Int("max-accesses", 2_000_000, "max accesses one job may request")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight work on shutdown")
	shard := flag.String("shard", "", "shard identity reported in responses and /healthz (for fleet deployments)")
	ledgerPath := flag.String("ledger", "", "append-only experiment ledger file; records every served result and serves /v1/ledger/{root,proof}")
	flushEvery := flag.Duration("ledger-flush", 5*time.Second, "ledger anchoring interval (with -ledger)")
	flag.Parse()

	reg := obs.NewRegistry()
	var led *ledger.Ledger
	if *ledgerPath != "" {
		backend, err := ledger.OpenDisk(*ledgerPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gliderd: opening ledger: %v\n", err)
			os.Exit(1)
		}
		if backend.Torn() {
			log.Printf("gliderd: ledger %s had a torn tail (crash mid-append); truncated to last complete record", *ledgerPath)
		}
		led, err = ledger.New(backend, ledger.Options{FlushEvery: *flushEvery, Obs: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gliderd: ledger failed verification: %v\n", err)
			os.Exit(1)
		}
		log.Printf("gliderd: ledger %s open: %+v", *ledgerPath, led.Root())
	}

	srv := server.New(server.Config{
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *defaultTimeout,
		Limits:         server.Limits{MaxAccesses: *maxAccesses},
		ShardID:        *shard,
		Obs:            reg,
		Ledger:         led,
	})

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	h := srv.Health()
	log.Printf("gliderd: listening on %s (queue=%d workers=%d)", *addr, h.QueueCapacity, h.Workers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("gliderd: %s received, draining (in-flight finishes, queue rejects)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("gliderd: drain incomplete: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("gliderd: shutdown: %v", err)
		}
		// Anchor whatever is still pending so the log closes on a batch
		// boundary — a clean restart replays to exactly this head.
		if led != nil {
			if err := led.Close(); err != nil {
				log.Printf("gliderd: closing ledger: %v", err)
			}
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "gliderd: %v\n", err)
			os.Exit(1)
		}
	}
}
