// Command compose-serve exposes the design-point evaluation pipeline as a
// long-lived HTTP/JSON service, so interactive tools and sweep clients
// share one process-wide cache instead of paying the full profile+score
// cost per invocation.
//
// Endpoints:
//
//	POST /evaluate      score one design point or a batch (≤256)
//	POST /explore       start an async sweep; poll GET /explore/{id}
//	GET  /healthz       liveness (503 + Retry-After while draining)
//	GET  /metrics       Prometheus text exposition
//
// Operational controls:
//
//	-checkpoint  warm-start from a compose-explore checkpoint (profile
//	             sets, plus the evaluated design points, re-scored at
//	             boot) and save the (grown) caches on shutdown. A corrupt
//	             checkpoint is quarantined to <path>.corrupt and the
//	             server starts cold (-checkpoint-strict fails instead).
//	-store       crash-safe append-only profile store: every profile set
//	             is written through as it completes, and the profile tier
//	             warm-starts from the log at boot, so any configuration of
//	             a stored ISA is a score-only miss. Store failures never
//	             fail serving — a circuit breaker degrades to memory-only
//	             ( /healthz "degraded") and probes for recovery.
//	-warm        compute the reference metrics in the background at boot,
//	             so the first request doesn't pay for them.
//	-regions     serve only the first N suite regions (CI smoke runs).
//	-pprof       serve net/http/pprof on a second listener (e.g.
//	             localhost:6060), kept off the API mux so profiling a
//	             production server never exposes debug handlers to clients.
//
// SIGTERM/SIGINT drains gracefully: in-flight requests complete, new ones
// get 503 + Retry-After, then the caches are checkpointed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // debug handlers on the DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"compisa/internal/explore"
	"compisa/internal/par"
	"compisa/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "max concurrent evaluations (0 = one per CPU)")
	queue := flag.Int("queue", 0, "max evaluations waiting for a worker before 429 (0 = 4x workers)")
	timeout := flag.Duration("timeout", 2*time.Minute, "server-side deadline per design-point evaluation")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: warm-start caches from it, save them back on shutdown")
	checkpointStrict := flag.Bool("checkpoint-strict", false, "fail on a corrupt checkpoint instead of quarantining it and starting cold")
	storePath := flag.String("store", "", "crash-safe profile store: warm-start from it, write each profile set through as it completes")
	regions := flag.Int("regions", 0, "serve only the first N suite regions (0 = full suite)")
	warm := flag.Bool("warm", false, "compute reference metrics in the background at startup")
	stats := flag.Bool("stats", false, "print evaluation pipeline statistics on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled); separate from the API listener")
	flag.Parse()
	log.SetFlags(0)

	if err := run(*addr, *workers, *queue, *timeout, *drainTimeout, *checkpoint, *checkpointStrict,
		*storePath, *regions, *warm, *stats, *pprofAddr); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, workers, queue int, timeout, drainTimeout time.Duration,
	checkpoint string, checkpointStrict bool, storePath string,
	regions int, warm, stats bool, pprofAddr string) error {
	if pprofAddr != "" {
		// The API server builds its own mux (serve.Handler), so the
		// net/http/pprof handlers registered on the DefaultServeMux are
		// reachable only through this dedicated listener. Listen before
		// logging so ":0" reports the bound port, not the requested one.
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		log.Printf("[pprof listening on http://%s/debug/pprof/]", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	db := explore.NewDB()
	db.Log = log.Printf
	if regions > 0 && regions < len(db.Regions) {
		db.Regions = db.Regions[:regions]
	}
	if workers <= 0 {
		workers = par.DefaultLimit()
	}
	// The caches warm-start from the checkpoint and the store, and are
	// checkpointed however serving ends.
	err := explore.RunDurable(db, explore.Durability{
		Checkpoint: checkpoint, Strict: checkpointStrict, Store: storePath,
	}, func(d *explore.Durable) error {
		// A circuit breaker keeps runtime store failures away from the
		// request path.
		var breaker *serve.StoreBreaker
		if d.Persist != nil {
			breaker = serve.NewStoreBreaker(d.Persist, serve.BreakerConfig{Log: log.Printf})
			db.Persist = breaker
		}
		srv := serve.New(db, serve.Config{
			Workers: workers, Queue: queue, Timeout: timeout,
			EvalStats: &db.Stats,
			Store:     breaker,
			Log:       log.Printf,
		})
		srv.MarkEvaluated(db.CandidateKeys()...)

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if warm {
			go func() {
				if _, err := db.ReferenceMetrics(ctx); err != nil && ctx.Err() == nil {
					log.Printf("warm reference metrics: %v", err)
				}
			}()
		}

		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		// Printed for humans and for scripts that booted with :0.
		fmt.Fprintf(os.Stderr, "listening on http://%s (%d regions, %d workers)\n",
			ln.Addr(), len(db.Regions), workers)

		hs := &http.Server{Handler: srv.Handler()}
		errc := make(chan error, 1)
		go func() { errc <- hs.Serve(ln) }()

		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		log.Printf("[shutting down: draining up to %s]", drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		return nil
	})
	if stats {
		fmt.Fprint(os.Stderr, db.StatsSnapshot().Format())
	}
	return err
}
