// Command faure-serve is the resident verification service: it loads a
// network state (a c-table database, a RIB, or a generated synthetic
// RIB) and a fauré-log program once, evaluates to a warm generation,
// and serves concurrent verification and query requests over HTTP
// while a single writer applies streamed updates — journaled to a
// write-ahead log so a crash-restart replays to the bit-identical
// state.
//
//	faure-serve -addr :8347 -gen-prefixes 200 -wal serve.wal
//
//	POST /v1/verify      {"target": "...", "known": ["..."], "update": "..."}
//	POST /v1/query       {"program": "...", "pred": "reach"}
//	POST /v1/update      text body: +fwd(p, 1, 2).  (-fact. deletes)
//	GET  /v1/generation  current generation metadata
//	GET  /healthz /readyz /metrics
//
// SIGTERM / SIGINT starts a graceful drain: readiness goes 503, new
// requests are refused, in-flight requests and queued updates finish
// under -drain-timeout, and the WAL is fsynced before exit.
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

	"faure"
	"faure/internal/obsflag"
)

func main() {
	addr := flag.String("addr", ":8347", "HTTP listen address")
	progPath := flag.String("program", "", "fauré-log program file (default: built-in reachability q4–q5)")
	statePath := flag.String("state", "", "network state file (c-table database)")
	ribPath := flag.String("rib", "", "RIB file compiled to the forwarding c-table (alternative to -state)")
	genPrefixes := flag.Int("gen-prefixes", 200, "with no -state/-rib: generate a synthetic RIB with this many prefixes")
	seed := flag.Int64("seed", 1, "synthetic RIB seed")
	walPath := flag.String("wal", "", "write-ahead log path (empty = no durability)")
	maxInflight := flag.Int("max-inflight", 64, "bound on concurrently admitted requests (excess gets 429)")
	queueDepth := flag.Int("queue-depth", 128, "bound on queued updates (excess gets 429)")
	updateRetries := flag.Int("update-retries", 3, "retries for transient (deadline) update failures")
	updateTimeout := flag.Duration("update-timeout", 0, "wall-clock budget per update apply attempt (0 = unlimited)")
	checksum := flag.Bool("checksum", false, "compute a SHA-256 checksum of every published generation")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline on SIGTERM/SIGINT")
	ob := obsflag.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*addr, *progPath, *statePath, *ribPath, *genPrefixes, *seed,
		*walPath, *maxInflight, *queueDepth, *updateRetries, *updateTimeout,
		*checksum, *drainTimeout, ob); err != nil {
		_ = ob.Close(os.Stderr)
		fmt.Fprintln(os.Stderr, "faure-serve:", err)
		os.Exit(obsflag.ExitCode(err))
	}
	_ = ob.Close(os.Stderr)
}

func run(addr, progPath, statePath, ribPath string, genPrefixes int, seed int64,
	walPath string, maxInflight, queueDepth, updateRetries int, updateTimeout time.Duration,
	checksum bool, drainTimeout time.Duration, ob *obsflag.Flags) error {
	if err := ob.Init(); err != nil {
		return err
	}
	log := ob.Logger()

	prog := faure.ReachabilityProgram()
	if progPath != "" {
		src, err := os.ReadFile(progPath)
		if err != nil {
			return err
		}
		prog, err = faure.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", progPath, err)
		}
	}

	var base *faure.Database
	switch {
	case statePath != "" && ribPath != "":
		return errors.New("-state and -rib are mutually exclusive")
	case statePath != "":
		src, err := os.ReadFile(statePath)
		if err != nil {
			return err
		}
		base, err = faure.ParseDatabase(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", statePath, err)
		}
	case ribPath != "":
		f, err := os.Open(ribPath)
		if err != nil {
			return err
		}
		r, err := faure.ParseRIB(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", ribPath, err)
		}
		base = r.ForwardingDatabase()
	default:
		r := faure.GenerateRIB(faure.RIBConfig{Prefixes: genPrefixes, Seed: seed})
		base = r.ForwardingDatabase()
		log.Info("generated synthetic RIB", "prefixes", genPrefixes, "seed", seed)
	}

	// A service always keeps metrics: use the -metrics/-debug-addr
	// registry when one was requested, a private one otherwise (exposed
	// on the service's own /metrics either way).
	metrics := ob.Registry()
	if metrics == nil {
		metrics = faure.NewMetrics()
	}

	svc, err := faure.Serve(faure.ServiceConfig{
		Program:       prog,
		Base:          base,
		WALPath:       walPath,
		MaxInflight:   maxInflight,
		QueueDepth:    queueDepth,
		UpdateRetries: updateRetries,
		RequestLimits: ob.Limits(),
		UpdateLimits:  faure.Budget{Timeout: updateTimeout},
		Checksum:      checksum,
		Obs:           metrics,
		Log:           log,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: addr, Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Info("serving", "addr", addr, "generation", svc.Current().Seq)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		_ = svc.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	stop()
	log.Info("draining", "deadline", drainTimeout.String())
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Order: drain the writer first (queued updates finish and hit the
	// WAL; new requests already get 503 from the readiness gate), then
	// stop the HTTP server (waits for in-flight request handlers).
	serr := svc.Shutdown(shCtx)
	herr := httpSrv.Shutdown(shCtx)
	if serr != nil {
		return fmt.Errorf("drain: %w", serr)
	}
	if herr != nil {
		return fmt.Errorf("drain: %w", herr)
	}
	log.Info("drained cleanly")
	return nil
}
