// Command arcsd is the ARCS observability daemon: it runs mining jobs
// submitted over HTTP and exposes the live telemetry plane while they
// are in flight — Prometheus metrics, streamed span traces, a flight
// recorder for post-hoc triage, and pprof.
//
// Usage:
//
//	arcsd -addr 127.0.0.1:8080 [-spans trace.jsonl] [-csv-root /data]
//
// Endpoints:
//
//	GET  /metrics              Prometheus text exposition (live registry)
//	GET  /healthz              liveness
//	GET  /readyz               readiness; 503 while draining
//	POST /runs                 submit a mining job (JSON spec), 202 + id
//	GET  /runs                 list retained runs
//	GET  /runs/{id}            run status, including results when done and,
//	                           for synth runs, a mining-quality block
//	                           (held-out error, interestingness measures,
//	                           rectangle recovery; see -quality-testn)
//	DELETE /runs/{id}          cooperative cancel
//	GET  /runs/{id}/spans      live NDJSON/SSE span stream (replay when done)
//	POST /models               publish a model (from a finished run or upload);
//	                           requires -registry
//	GET  /models               list versions incl. quarantined ones + active
//	GET  /models/{id}          one version's manifest, state and document
//	POST /models/{id}/activate re-validate from disk and hot-swap; on failure
//	                           the previous model keeps serving
//	POST /apply                score a tuple or [x,y] batch against the active
//	                           model, behind in-flight limiter (429) and
//	                           deadline (504) admission
//	GET  /debug/flightrecord   dump the flight-recorder ring [?run=id]
//	GET  /debug/vars           expvar (registry snapshot)
//	GET  /debug/pprof/...      pprof; samples carry arcs_run/arcs_phase labels
//
// SIGINT/SIGTERM starts a drain: /readyz flips to 503, new submissions
// are refused, in-flight runs are canceled cooperatively (degrading to
// best-so-far results), and the server shuts down within -drain.
//
// -mem-budget and -counts-backend are the defaults for runs; a job spec
// overrides them per run with mem_budget and counts_backend.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"arcs/internal/cli"
	"arcs/internal/obs"
	"arcs/internal/obs/serve"
	"arcs/internal/segment/registry"
)

func main() {
	c := cli.New(cli.Spec{
		Name:   "arcsd",
		Spans:  "tee every run's span trace to this JSONL file",
		Counts: true,
	})
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		csvRoot   = flag.String("csv-root", "", "restrict csv job paths to this directory (empty: any readable path)")
		flightCap = flag.Int("flight-cap", 8192, "flight recorder capacity (events retained)")
		maxRuns   = flag.Int("max-runs", 64, "finished runs retained for status queries")
		qualityN  = flag.Int("quality-testn", 5000, "held-out test table size for synth-run quality evaluation (negative: disable)")
		streamBuf = flag.Int("stream-buffer", 1024, "per-subscriber span stream buffer before events drop")

		registryDir   = flag.String("registry", "", "segmentation-model registry directory; enables /models and /apply")
		applyInFlight = flag.Int("apply-max-inflight", 64, "concurrent /apply requests before load is shed with 429")
		applyTimeout  = flag.Duration("apply-timeout", 5*time.Second, "per-request /apply deadline ceiling")
		drain         = flag.Duration("drain", 10*time.Second, "graceful shutdown budget after SIGINT/SIGTERM")
		lameDuck      = flag.Duration("lame-duck", 0, "hold /readyz at 503 this long before canceling runs, so load balancers stop routing first")
	)
	c.Parse()

	// The flight recorder exists before logging is set up so log lines
	// land in it too: a /debug/flightrecord dump interleaves the
	// daemon's own logs with the span record. A signal, which cancels
	// ctx, starts the drain.
	flight := obs.NewFlightRecorder(*flightCap)
	ctx := c.Start(io.MultiWriter(os.Stderr, flight.LogWriter()))
	defer c.Exit()

	reg := obs.NewRegistry()
	if err := obs.PublishExpvar("arcs", reg); err != nil {
		slog.Warn("publishing expvar snapshot", "err", err)
	}

	// The model registry survives restarts: corrupt or half-published
	// versions found on disk are quarantined (visible in GET /models and
	// the models_quarantined_total counter), and the activation history
	// replays to the most recent version that still validates.
	var models *registry.Registry
	if *registryDir != "" {
		var err error
		models, err = registry.Open(*registryDir, registry.Options{Metrics: reg})
		if err != nil {
			c.Fatal(err)
		}
		slog.Info("model registry open", "dir", *registryDir,
			"versions", len(models.List()), "active", models.ActiveID())
	}

	srv := serve.New(serve.Options{
		Registry:         reg,
		Flight:           flight,
		Harvester:        obs.NewRuntimeHarvester(reg),
		Tee:              c.SpanSink(),
		CSVRoot:          *csvRoot,
		SubscriberBuffer: *streamBuf,
		MaxRuns:          *maxRuns,
		QualityTestN:     *qualityN,
		MemBudget:        c.MemBudget(),
		CountsBackend:    c.CountsBackend(),

		Models:           models,
		ApplyMaxInFlight: *applyInFlight,
		ApplyTimeout:     *applyTimeout,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		slog.Info("arcsd listening", "addr", *addr, "flight_cap", *flightCap)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		c.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: flip /readyz so load balancers stop routing (holding it
	// there for the lame-duck window), refuse new submissions, cancel
	// in-flight runs cooperatively (they degrade to best-so-far
	// results), and keep serving status/metrics/streams until the runs
	// finish — only then close the listener. Span streams end naturally
	// as each run's fan-out closes.
	slog.Info("draining", "budget", *drain, "lame_duck", *lameDuck)
	srv.SetReady(false)
	if *lameDuck > 0 {
		time.Sleep(*lameDuck)
	}
	srv.CancelAll()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drained := true
	for _, run := range srv.Runs() {
		select {
		case <-run.Done():
		case <-shutdownCtx.Done():
			drained = false
		}
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		slog.Warn("shutdown incomplete; forcing close", "err", err)
		httpSrv.Close()
	}
	if !drained {
		c.Fatal(errors.New("drain budget exhausted with runs in flight"))
	}
	slog.Info("arcsd stopped")
}
