// Command warpd is the simulation-as-a-service daemon: an HTTP/JSON
// API that accepts simulation jobs (a bundled benchmark or an inline
// kernel, plus config overrides and a fault campaign), executes them
// on a bounded worker pool, and answers repeated submissions from a
// content-addressed result cache.
//
// Usage:
//
//	warpd -addr localhost:8080 -workers 4 -queue 64
//
// Identical jobs are executed once: duplicates coalesce onto the
// in-flight execution and completed results are served from an
// LRU-bounded cache, optionally backed by a durable on-disk store
// (-store-dir) that survives restarts. A full queue answers 429 with
// Retry-After; SIGTERM/SIGINT drains gracefully — admission stops,
// /readyz flips to 503, queued and in-flight jobs finish, metrics
// flush, then the process exits. See docs/SERVICE.md for the API
// reference.
//
// With -coordinator, warpd instead runs as a cluster coordinator: the
// same job front end, executing nothing itself but consistent-
// hashing each job across the given pool of warpd workers with
// cluster-wide coalescing, hedged retries, and worker health
// tracking. See docs/CLUSTER.md.
//
//	warpd -addr :9090 -coordinator http://w1:8080,http://w2:8080 -store-dir /var/lib/warpd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"warped/internal/cluster"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address")
		workers    = flag.Int("workers", 0, "simulation concurrency (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "max accepted-but-not-started jobs before 429")
		cacheSize  = flag.Int("cache", 256, "completed results retained for cache hits (LRU)")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job wall-clock budget (0 = unlimited)")
		drainWait  = flag.Duration("drain-timeout", 5*time.Minute, "max wait for in-flight jobs on shutdown")
		metricsTo  = flag.String("metrics-out", "", "write the final metrics snapshot as JSON Lines to this file")

		coordinator = flag.String("coordinator", "", "run as a cluster coordinator over this comma-separated worker URL pool")
		storeDir    = flag.String("store-dir", "", "durable result store directory (worker and coordinator modes; empty = memory only)")
		storeMax    = flag.Int64("store-max-bytes", 0, "store size bound before LRU GC (0 = 1GiB default)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "coordinator: hedge a dispatch to the next ring node after this long (0 = off)")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "coordinator: worker readiness probe cadence")
		vnodes      = flag.Int("vnodes", cluster.DefaultVNodes, "coordinator: virtual nodes per worker on the hash ring")
	)
	flag.Parse()

	reg := metrics.New()
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, MaxBytes: *storeMax, Metrics: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "warpd: opening store: %v\n", err)
			os.Exit(1)
		}
	}

	var d daemon
	if *coordinator != "" {
		d = cluster.New(cluster.Options{
			Workers:       strings.Split(*coordinator, ","),
			VNodes:        *vnodes,
			Store:         st,
			Metrics:       reg,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeEvery,
		})
	} else {
		d = service.New(service.Options{
			Workers:      *workers,
			QueueDepth:   *queue,
			CacheEntries: *cacheSize,
			JobTimeout:   *jobTimeout,
			Store:        st,
			Metrics:      reg,
		})
	}

	if err := run(d, reg, *addr, *drainWait, *metricsTo); err != nil {
		fmt.Fprintf(os.Stderr, "warpd: %v\n", err)
		os.Exit(1)
	}
}

// daemon is what run serves: both the single-node service and the
// cluster coordinator mount an http.Handler and drain gracefully.
type daemon interface {
	Handler() http.Handler
	Drain(context.Context) error
}

func run(d daemon, reg *metrics.Registry, addr string, drainWait time.Duration, metricsTo string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("warpd: listening on http://%s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (readiness flips to 503), let the
	// HTTP server finish responses in flight, run the accepted backlog
	// to completion, then flush metrics. A second signal interrupts the
	// wait and exits hard.
	fmt.Println("warpd: draining...")
	stop()
	drainCtx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if drainWait > 0 {
		var tcancel context.CancelFunc
		drainCtx, tcancel = context.WithTimeout(drainCtx, drainWait)
		defer tcancel()
	}
	drainErr := d.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "warpd: http shutdown: %v\n", err)
	}
	if metricsTo != "" {
		if err := writeMetrics(reg, metricsTo); err != nil {
			fmt.Fprintf(os.Stderr, "warpd: %v\n", err)
		}
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("warpd: drained, exiting")
	return nil
}

// writeMetrics flushes the final snapshot as JSON Lines.
func writeMetrics(reg *metrics.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
