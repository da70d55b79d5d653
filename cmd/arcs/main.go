// Command arcs runs the Association Rule Clustering System over a CSV
// file and prints the clustered association rules that segment the data.
//
// Usage:
//
//	arcs -in data.csv -x age -y salary -crit group [-value A] [flags]
//
// With -value, one segmentation is computed; without it, every value of
// the criterion attribute is segmented (reusing the single binning pass).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/report"
	"arcs/internal/segment"
)

// Exit codes: 0 success, 1 fatal error, 2 usage, 3 canceled (SIGINT or
// -timeout) — possibly after printing a degraded best-so-far result.
const exitCanceled = 3

func main() {
	var (
		in         = flag.String("in", "", "input CSV file (required)")
		xAttr      = flag.String("x", "", "first LHS attribute (required)")
		yAttr      = flag.String("y", "", "second LHS attribute (required)")
		critAttr   = flag.String("crit", "", "categorical criterion attribute (required)")
		critValue  = flag.String("value", "", "criterion value to segment (default: all values)")
		bins       = flag.Int("bins", 50, "bins per quantitative attribute")
		smoothing  = flag.String("smoothing", "binary", "grid smoothing: binary, off, weighted, morphological")
		binning    = flag.String("binning", "equi-width", "bin strategy: equi-width, equi-depth, homogeneity, supervised")
		search     = flag.String("search", "walk", "threshold search: walk, anneal, factorial, fixed")
		minSup     = flag.Float64("minsup", 0.0001, "minimum support (with -search fixed)")
		minConf    = flag.Float64("minconf", 0.39, "minimum confidence (with -search fixed)")
		prune      = flag.Float64("prune", 0.01, "minimum cluster size as a fraction of the grid")
		lift       = flag.Float64("lift", 0, "greater-than-expected interest factor (0 disables)")
		seed       = flag.Int64("seed", 1, "sampling seed")
		showGrid   = flag.Bool("grid", false, "print the rule grid before clustering")
		verbose    = flag.Bool("v", false, "debug logging plus the optimizer trace")
		logFormat  = flag.String("log-format", "text", "log output format: text, json")
		format     = flag.String("format", "text", "output format: text, markdown, json")
		stream     = flag.Bool("stream", false, "stream the CSV from disk instead of loading it (constant memory)")
		save       = flag.String("save", "", "write the segmentation model as JSON to this file (requires -value)")
		describe   = flag.Bool("describe", false, "print per-attribute statistics and exit")
		spansPath  = flag.String("spans", "", "write a JSONL span trace of the run to this file")
		metricsOut = flag.String("metrics-out", "", "write Prometheus text-format metrics to this file on exit")
		timeout    = flag.Duration("timeout", 0, "overall run budget; on expiry print the best-so-far result and exit 3")
		maxBadRows = flag.Int("max-bad-rows", 0, "input rows to quarantine per pass before failing; -1 unlimited, 0 strict")
		retries    = flag.Int("retries", 2, "retries per read for transient input errors")
		ingestW    = flag.Int("ingest-workers", 0, "workers for the parallel counting pass (0/1 sequential; needs an in-memory source, so not with -stream)")
		memBudget  = flag.String("mem-budget", "", "memory budget for the count substrate: bytes with optional K/M/G/T suffix, or 'off' for unlimited (empty keeps the 1 GiB default; grids over budget use the sparse backend)")
		backend    = flag.String("counts-backend", "auto", "count backend: auto, dense, sparse")
		prof       obs.Profiler
	)
	prof.RegisterFlags(flag.CommandLine)
	obs.ParseFlags(flag.CommandLine, os.Args[1:]) // exits 2 on a stray argument
	if *in == "" || (!*describe && (*xAttr == "" || *yAttr == "" || *critAttr == "")) {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := obs.SetupSlog(os.Stderr, *logFormat, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "arcs:", err)
		os.Exit(2)
	}
	defer func() {
		runExitHooks()
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	// SIGINT/SIGTERM and -timeout cancel the run cooperatively: the
	// pipeline stops at its next checkpoint and, when a search is far
	// enough along, degrades to the best-so-far result (exit 3).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	atExit(stopSignals)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		atExit(cancel)
	}
	// After the first cancellation, restore default signal handling so a
	// second Ctrl-C kills the process the ordinary way instead of being
	// swallowed while the pipeline drains to its next checkpoint.
	go func() { <-ctx.Done(); stopSignals() }()

	if stop, err := prof.Start(); err != nil {
		fatal(err)
	} else {
		atExit(func() {
			if err := stop(); err != nil {
				slog.Error("stopping profilers", "err", err)
			}
		})
	}

	// -spans or -metrics-out (or both) turn the observability layer on;
	// the live registry is also published on expvar for /debug/vars.
	var observer *obs.Observer
	if *spansPath != "" || *metricsOut != "" {
		var sink obs.Sink
		if *spansPath != "" {
			f, err := os.Create(*spansPath)
			if err != nil {
				fatal(err)
			}
			js := obs.NewJSONLSink(f)
			sink = js
			atExit(func() {
				if err := js.Err(); err != nil {
					slog.Error("writing span trace", "path", *spansPath, "err", err)
				}
				if err := f.Close(); err != nil {
					slog.Error("closing span trace", "path", *spansPath, "err", err)
				}
			})
		}
		observer = obs.New(sink)
		if err := obs.PublishExpvar("arcs", observer.Registry()); err != nil {
			slog.Warn("publishing expvar snapshot", "err", err)
		}
		// Flush the final registry state into the trace before the sink
		// closes (hooks run last-registered-first), so arcstrace sees the
		// run's counters and histograms alongside its spans.
		atExit(func() { observer.FlushMetrics() })
		if *metricsOut != "" {
			path := *metricsOut
			atExit(func() {
				f, err := os.Create(path)
				if err != nil {
					slog.Error("creating metrics file", "path", path, "err", err)
					return
				}
				snap := observer.Registry().Snapshot()
				if err := obs.WritePrometheus(f, snap, "arcs"); err != nil {
					slog.Error("writing metrics", "path", path, "err", err)
				}
				if err := f.Close(); err != nil {
					slog.Error("closing metrics file", "path", path, "err", err)
				}
			})
		}
	}

	outFormat, err := report.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}

	// Input always goes through the CSV stream wrapped in the resilient
	// layer — transient errors are retried with backoff and bad rows
	// (parse failures, non-finite values) are quarantined with row
	// numbers within the -max-bad-rows budget. Without -stream the
	// cleaned rows are then materialized into memory, so the quarantine
	// policy applies identically in both modes. With -stream the file is
	// parsed inside core's passes, so only the in-memory load has a
	// dataset.load span.
	sp := observer.Root("dataset.infer")
	schema, err := dataset.InferCSVSchema(*in, 10_000)
	sp.End()
	if err != nil {
		fatal(err)
	}
	var load obs.Span
	if !*stream {
		load = observer.Root("dataset.load")
	}
	cs, err := dataset.OpenCSVStream(*in, schema)
	if err != nil {
		fatal(err)
	}
	resilient := dataset.NewResilient(cs,
		dataset.Retry{Max: *retries, Seed: *seed},
		dataset.Quarantine{MaxBadRows: *maxBadRows,
			OnBad: func(reason string, row int, err error) {
				slog.Debug("quarantined row", "reason", reason, "row", row, "err", err)
			}})
	if observer != nil {
		resilient.Observe(observer.Registry())
	}
	atExit(func() {
		if st := resilient.Stats(); st.Total() > 0 || st.Retries > 0 {
			slog.Warn("input degradation",
				"rows_quarantined", st.Total(), "by_reason", st.Quarantined,
				"retries", st.Retries)
		}
	})

	var src dataset.Source
	var tb *dataset.Table // the loaded rows; nil with -stream
	if *stream {
		defer cs.Close()
		src = resilient
		if *ingestW > 1 {
			slog.Warn("-ingest-workers needs an in-memory source; streaming ingest stays sequential")
		}
	} else {
		tb, err = dataset.Materialize(resilient)
		if cerr := cs.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		if load.Enabled() {
			var size int64
			if fi, err := os.Stat(*in); err == nil {
				size = fi.Size()
			}
			load.End(obs.Int("rows", tb.Len()), obs.Int("quarantined", int(resilient.Stats().Total())),
				obs.Int("bytes", int(size)))
		}
		src = tb
	}

	if *describe {
		if tb == nil {
			if tb, err = dataset.Materialize(src); err != nil {
				fatal(err)
			}
		}
		fmt.Print(dataset.RenderSummary(dataset.Summarize(tb), 8))
		return
	}

	budget, err := counts.ParseBudget(*memBudget)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		XAttr: *xAttr, YAttr: *yAttr,
		CritAttr: *critAttr, CritValue: *critValue,
		NumBins:            *bins,
		PruneFraction:      *prune,
		InterestLift:       *lift,
		FixedMinSupport:    *minSup,
		FixedMinConfidence: *minConf,
		Seed:               *seed,
		IngestWorkers:      *ingestW,
		MemBudget:          budget,
		CountsBackend:      *backend,
		Walk:               optimizer.ThresholdWalk{},
		Observer:           observer,
	}
	switch *smoothing {
	case "binary":
		cfg.Smoothing = core.SmoothBinary
	case "off":
		cfg.Smoothing = core.SmoothOff
	case "weighted":
		cfg.Smoothing = core.SmoothWeighted
	case "morphological":
		cfg.Smoothing = core.SmoothMorphological
	default:
		fatal(fmt.Errorf("unknown smoothing %q", *smoothing))
	}
	switch *binning {
	case "equi-width":
		cfg.BinStrategy = core.BinEquiWidth
	case "equi-depth":
		cfg.BinStrategy = core.BinEquiDepth
	case "homogeneity":
		cfg.BinStrategy = core.BinHomogeneity
	case "supervised":
		cfg.BinStrategy = core.BinSupervised
	default:
		fatal(fmt.Errorf("unknown binning %q", *binning))
	}
	switch *search {
	case "walk":
		cfg.Search = core.SearchWalk
	case "anneal":
		cfg.Search = core.SearchAnneal
	case "factorial":
		cfg.Search = core.SearchFactorial
	case "fixed":
		cfg.Search = core.SearchFixed
	default:
		fatal(fmt.Errorf("unknown search %q", *search))
	}

	sys, err := core.NewContext(ctx, src, cfg)
	if err != nil {
		if wasCanceled(err) {
			fatalCode(err, exitCanceled)
		}
		fatal(err)
	}
	if *critValue != "" {
		res, err := sys.RunContext(ctx)
		if err != nil {
			re := core.AsRunError(err)
			switch {
			case re != nil && re.Partial && res != nil:
				slog.Warn("run canceled mid-search; printing best-so-far (degraded) result", "cause", err)
				exitCode = exitCanceled
			case wasCanceled(err):
				fatalCode(err, exitCanceled)
			default:
				fatal(err)
			}
		}
		if *showGrid {
			bm, err := sys.Grid(*critValue, res.MinSupport, res.MinConfidence)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("rule grid for %s = %s with clusters (y grows upward):\n%s",
				*critAttr, *critValue, report.RenderGrid(bm, res.Rules))
			fmt.Print(report.RenderGridLegend(res.Rules))
			fmt.Println()
		}
		if err := report.WriteResult(os.Stdout, res, outFormat); err != nil {
			fatal(err)
		}
		if *save != "" {
			if err := saveModel(*save, res); err != nil {
				fatal(err)
			}
		}
		printTrace(res, *verbose)
		return
	}
	if *save != "" {
		fatal(fmt.Errorf("-save requires -value"))
	}
	results, err := sys.SegmentAllContext(ctx)
	if err != nil {
		re := core.AsRunError(err)
		switch {
		case re != nil && re.Partial && len(results) > 0:
			slog.Warn("segmentation canceled; printing the groups that completed", "cause", err)
			exitCode = exitCanceled
		case wasCanceled(err):
			fatalCode(err, exitCanceled)
		default:
			fatal(err)
		}
	}
	labels := make([]string, 0, len(results))
	for label := range results {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	if err := report.WriteAll(os.Stdout, results, labels, outFormat); err != nil {
		fatal(err)
	}
	if *verbose {
		for _, label := range labels {
			printTrace(results[label], true)
		}
	}
}

func saveModel(path string, res *core.Result) error {
	model, err := segment.New(res.Rules, res.MinSupport, res.MinConfidence)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return model.Write(f)
}

func printTrace(res *core.Result, verbose bool) {
	if !verbose {
		return
	}
	for _, s := range res.Trace {
		note := s.Reason
		if s.CacheHit {
			note += ", cached"
		}
		if note != "" {
			note = " (" + note + ")"
		}
		fmt.Printf("  probe sup=%.5f conf=%.3f -> %d rules, cost %.2f%s\n",
			s.Support, s.Confidence, s.NumRules, s.Cost, note)
	}
	p := res.Provenance
	fmt.Printf("  search: %d probes, %d accepted, %d zero-rules, %d no-improvement, %d cache hits\n",
		p.Probes, p.Accepted, p.ZeroRules, p.NoImprovement, p.CacheHits)
}

// exitCode is the process status set on the graceful-degradation paths;
// the deferred block in main applies it after the exit hooks have run,
// so traces and metrics flush even on a canceled run.
var exitCode int

// wasCanceled reports whether err stems from context cancellation
// (SIGINT/SIGTERM) or deadline expiry (-timeout).
func wasCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fatalCode is fatal with an explicit exit status.
func fatalCode(err error, code int) {
	runExitHooks()
	slog.Error(err.Error())
	os.Exit(code)
}

// exitHooks run once, either on normal return from main (via defer) or
// from fatal before os.Exit, so profiles, span traces, and metric files
// are flushed on every path.
var exitHooks []func()

func atExit(fn func()) { exitHooks = append(exitHooks, fn) }

func runExitHooks() {
	hooks := exitHooks
	exitHooks = nil
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
}

func fatal(err error) {
	runExitHooks()
	slog.Error(err.Error())
	os.Exit(1)
}
