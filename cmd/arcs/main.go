// Command arcs runs the Association Rule Clustering System over a CSV
// file and prints the clustered association rules that segment the data.
//
// Usage:
//
//	arcs -in data.csv -x age -y salary -crit group [-value A] [flags]
//
// With -value, one segmentation is computed; without it, every value of
// the criterion attribute is segmented (reusing the single binning pass).
// -v adds the optimizer's probe trace to the output.
//
// Exit codes: 0 success, 1 fatal error, 2 usage (flag values are
// checked before any input is read, attribute names against the file's
// header before any row is loaded), 3 canceled (SIGINT or -timeout) —
// possibly after printing a degraded best-so-far result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"

	"arcs/internal/cli"
	"arcs/internal/core"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/report"
	"arcs/internal/segment"
)

func main() {
	c := cli.New(cli.Spec{
		Name:    "arcs",
		Timeout: "overall run budget; on expiry print the best-so-far result and exit 3",
		Spans:   "write a JSONL span trace of the run to this file",
		Input:   true,
		Counts:  true,
		Profile: true,
	})
	var (
		in         = flag.String("in", "", "input CSV file (required)")
		xAttr      = flag.String("x", "", "first LHS attribute (required)")
		yAttr      = flag.String("y", "", "second LHS attribute (required)")
		critAttr   = flag.String("crit", "", "categorical criterion attribute (required)")
		critValue  = flag.String("value", "", "criterion value to segment (default: all values)")
		bins       = flag.Int("bins", 50, "bins per quantitative attribute")
		smoothing  = flag.String("smoothing", "binary", "grid smoothing: binary, off, weighted")
		binning    = flag.String("binning", "equi-width", "bin strategy: equi-width, equi-depth, homogeneity, supervised")
		search     = flag.String("search", "walk", "threshold search: walk, anneal, fixed")
		minSup     = flag.Float64("minsup", 0.0001, "minimum support (with -search fixed)")
		minConf    = flag.Float64("minconf", 0.39, "minimum confidence (with -search fixed)")
		prune      = flag.Float64("prune", 0.01, "minimum cluster size as a fraction of the grid")
		lift       = flag.Float64("lift", 0, "greater-than-expected interest factor (0 disables)")
		seed       = flag.Int64("seed", 1, "sampling seed")
		showGrid   = flag.Bool("grid", false, "print the rule grid before clustering")
		format     = flag.String("format", "text", "output format: text, markdown, json")
		stream     = flag.Bool("stream", false, "stream the CSV from disk instead of loading it (constant memory)")
		save       = flag.String("save", "", "write the segmentation model as JSON to this file (requires -value)")
		describe   = flag.Bool("describe", false, "print per-attribute statistics and exit")
		metricsOut = flag.String("metrics-out", "", "write Prometheus text-format metrics to this file on exit")
		ingestW    = flag.Int("ingest-workers", 0, "workers for the parallel counting pass (0/1 sequential; needs an in-memory source, so not with -stream)")
	)
	c.Parse()
	// Every flag value is checked before any input is read.
	if *in == "" || (!*describe && (*xAttr == "" || *yAttr == "" || *critAttr == "")) {
		c.Usage(errors.New("need -in, and -x, -y and -crit unless -describe"))
	}
	if *save != "" && *critValue == "" {
		c.Usage(errors.New("-save requires -value"))
	}
	outFormat, err := report.ParseFormat(*format)
	if err != nil {
		c.Usage(err)
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
		MemBudget:          c.MemBudget(),
		CountsBackend:      c.CountsBackend(),
		Walk:               optimizer.ThresholdWalk{},
	}
	if cfg.Smoothing, err = core.ParseSmoothingMode(*smoothing); err != nil {
		c.Usage(err)
	}
	if cfg.BinStrategy, err = core.ParseBinStrategy(*binning); err != nil {
		c.Usage(err)
	}
	if cfg.Search, err = core.ParseSearchStrategy(*search); err != nil {
		c.Usage(err)
	}

	// The pipeline stops at its next checkpoint when ctx is canceled and,
	// when a search is far enough along, degrades to the best-so-far
	// result (exit 3).
	ctx := c.Start(os.Stderr)
	defer c.Exit()

	// -spans or -metrics-out (or both) turn the observability layer on.
	if sink := c.SpanSink(); sink != nil || *metricsOut != "" {
		observer := obs.New(sink)
		// Flush the final registry state into the trace before the sink
		// closes (hooks run last-registered-first), so arcstrace sees the
		// run's counters and histograms alongside its spans.
		c.AtExit(observer.FlushMetrics)
		if *metricsOut != "" {
			path := *metricsOut
			c.AtExit(func() {
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
		cfg.Observer = observer
	}

	// Bad rows are quarantined within the -max-bad-rows budget in both
	// modes. Without -stream the cleaned rows are loaded into memory;
	// with it the file is parsed inside core's passes, so only the
	// in-memory load has a dataset.load span.
	input, err := dataset.OpenCSV(*in, c.MaxBadRows(), cfg.Observer, "")
	if err != nil {
		c.Fatal(err)
	}
	// A misspelled attribute is a usage error, found in the inferred
	// header before any row is loaded.
	if !*describe {
		for _, a := range []struct{ flag, name string }{{"x", *xAttr}, {"y", *yAttr}, {"crit", *critAttr}} {
			if _, err := input.Schema().Index(a.name); err != nil {
				c.Usage(fmt.Errorf("-%s: %w", a.flag, err))
			}
		}
	}
	c.AtExit(input.LogDegradation)
	var src dataset.Source = input
	var tb *dataset.Table // the loaded rows; nil with -stream
	if *stream {
		defer input.Close()
		if *ingestW > 1 {
			slog.Warn("-ingest-workers needs an in-memory source; streaming ingest stays sequential")
		}
	} else {
		if tb, err = input.Load(); err != nil {
			c.Fatal(err)
		}
		src = tb
	}

	if *describe {
		if tb == nil {
			if tb, err = dataset.Materialize(src); err != nil {
				c.Fatal(err)
			}
		}
		fmt.Print(dataset.RenderSummary(dataset.Summarize(tb), 8))
		return
	}

	sys, err := core.NewContext(ctx, src, cfg)
	if err != nil {
		c.Fatal(err)
	}
	if *critValue != "" {
		res, err := sys.RunContext(ctx)
		if err != nil {
			if re := core.AsRunError(err); re != nil && re.Partial && res != nil {
				slog.Warn("run canceled mid-search; printing best-so-far (degraded) result", "cause", err)
				c.MarkCanceled()
			} else {
				c.Fatal(err)
			}
		}
		if *showGrid {
			bm, err := sys.Grid(*critValue, res.MinSupport, res.MinConfidence)
			if err != nil {
				c.Fatal(err)
			}
			fmt.Printf("rule grid for %s = %s with clusters (y grows upward):\n%s",
				*critAttr, *critValue, report.RenderGrid(bm, res.Rules))
			fmt.Print(report.RenderGridLegend(res.Rules))
			fmt.Println()
		}
		if err := report.WriteResult(os.Stdout, res, outFormat); err != nil {
			c.Fatal(err)
		}
		if *save != "" {
			if err := saveModel(*save, res); err != nil {
				c.Fatal(err)
			}
		}
		printTrace(res, c.Verbose())
		return
	}
	results, err := sys.SegmentAllContext(ctx)
	if err != nil {
		if re := core.AsRunError(err); re != nil && re.Partial && len(results) > 0 {
			slog.Warn("segmentation canceled; printing the groups that completed", "cause", err)
			c.MarkCanceled()
		} else {
			c.Fatal(err)
		}
	}
	labels := make([]string, 0, len(results))
	for label := range results {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	if err := report.WriteAll(os.Stdout, results, labels, outFormat); err != nil {
		c.Fatal(err)
	}
	if c.Verbose() {
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
