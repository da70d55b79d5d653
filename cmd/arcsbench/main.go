// Command arcsbench regenerates the tables and figures of the ARCS
// paper's evaluation section (§4). Each experiment prints the same rows
// or series the paper reports; absolute numbers differ from the 1997
// hardware, but the shapes (who wins, by what factor, where C4.5 drops
// out) are the point of comparison.
//
// Usage:
//
//	arcsbench -exp rules                # §4.2: recovered clustered rules
//	arcsbench -exp fig11               # error rate vs tuples, U=0
//	arcsbench -exp fig12               # error rate vs tuples, U=10%
//	arcsbench -exp fig13               # rules produced, U=0
//	arcsbench -exp fig14               # rules produced, U=10%
//	arcsbench -exp fig15               # ARCS scale-up
//	arcsbench -exp table2              # comparative execution times
//	arcsbench -exp bins                # bin-granularity study
//	arcsbench -exp smoothing           # Figure 7 before/after grids
//	arcsbench -exp ablation            # design-choice ablations
//	arcsbench -exp why                 # §1 motivation: rule-count comparison
//	arcsbench -exp feedbackloop        # search-loop probes/sec + cache hit-rate
//	arcsbench -exp ingest              # counting pass: dense vs sharded workers
//	arcsbench -exp quality             # mining quality across all 10 functions
//	arcsbench -exp all                 # everything
//
// -scale shrinks every database size by the given factor for quick runs.
//
// Exit codes: 0 success, 1 fatal error, 2 usage (including an unknown
// -exp name and a bad flag value), 3 canceled (SIGINT or -timeout) —
// experiments already printed stand as partial results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"arcs/internal/cli"
	"arcs/internal/experiments"
)

// experimentNames lists the -exp names in the order -exp all runs them.
var experimentNames = []string{"rules", "fig11", "fig12", "fig13", "fig14", "fig15", "table2",
	"bins", "why", "ablation", "feedbackloop", "ingest", "quality", "smoothing"}

func main() {
	c := cli.New(cli.Spec{
		Name:    "arcsbench",
		Timeout: "overall budget; experiments not yet started when it expires are skipped and the process exits 3",
		Spans:   "write a JSONL span trace of the feedbackloop experiment to this file",
		Profile: true,
	})
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, ", ")+", or all")
		ingestW = flag.String("ingest-workers", "2,4,8", "comma-separated worker counts for -exp ingest")
		ingestN = flag.String("ingest-tuples", "1000000,2000000,5000000,10000000", "comma-separated workload sizes for -exp ingest (each divided by -scale)")
		scale   = flag.Int("scale", 1, "divide every database size by this factor")
		c45Cap  = flag.Int("c45cap", 200_000, "largest database C4.5 is attempted on (the paper's C4.5 ran out of memory beyond 100k)")
		testN   = flag.Int("testn", 10_000, "held-out test table size")
	)
	c.Parse()
	// A misspelled -exp would otherwise match no experiment and exit 0,
	// silently skipping whatever gate a CI step meant to run.
	if *exp != "all" && !slices.Contains(experimentNames, *exp) {
		c.Usage(fmt.Errorf("unknown experiment %q (valid: %s, or all)", *exp, strings.Join(experimentNames, ", ")))
	}
	if *scale < 1 {
		c.Usage(errors.New("-scale must be >= 1"))
	}
	workers, err := parseWorkers(*ingestW)
	if err != nil {
		c.Usage(err)
	}
	ingestSizes, err := parseSizes(*ingestN, *scale)
	if err != nil {
		c.Usage(err)
	}

	// A canceled ctx skips the experiments not yet started: completed
	// tables have already been printed.
	ctx := c.Start(os.Stderr)
	defer c.Exit()

	// The paper's Figure 11-14 sizes: 20k to 1M tuples.
	figSizes := scaled([]int{20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000}, *scale)
	// Figure 15: 100k to 10M.
	scaleupSizes := scaled([]int{100_000, 200_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 10_000_000}, *scale)

	canceled := false
	run := func(name string, fn func() error) {
		if !slices.Contains(experimentNames, name) {
			panic("arcsbench: experiment " + name + " is missing from experimentNames")
		}
		if *exp != "all" && *exp != name {
			return
		}
		if err := ctx.Err(); err != nil {
			if !canceled {
				slog.Warn("suite canceled; skipping remaining experiments", "cause", err)
				canceled = true
				c.MarkCanceled()
			}
			slog.Debug("skipped experiment", "exp", name)
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		if err := fn(); err != nil {
			c.Fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	run("rules", func() error {
		res, err := experiments.RecoveredRules()
		if err != nil {
			return err
		}
		fmt.Println("paper §4.2: 50,000 tuples, P=5%, U=10% — expected ~3 rules matching the F2 disjuncts")
		for _, r := range res.Rules {
			fmt.Printf("  %s   [support %.4f, confidence %.2f]\n", r, r.Support, r.Confidence)
		}
		fmt.Printf("thresholds sup=%.5f conf=%.3f, verification %s\n",
			res.MinSupport, res.MinConfidence, res.Errors)
		return nil
	})

	// The four comparison figures and Table 2 are views of two sweeps
	// (U=0 and U=10%); cache them so -exp all runs each sweep once.
	var sweeps [2][]experiments.ComparisonRow
	sweep := func(outliers float64) ([]experiments.ComparisonRow, error) {
		idx := 0
		if outliers > 0 {
			idx = 1
		}
		if sweeps[idx] != nil {
			return sweeps[idx], nil
		}
		rows, err := experiments.Comparison(figSizes, outliers, *c45Cap, *testN)
		if err != nil {
			return nil, err
		}
		sweeps[idx] = rows
		return rows, nil
	}
	comparison := func(outliers float64, times bool) func() error {
		return func() error {
			rows, err := sweep(outliers)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderComparison(rows, times))
			return nil
		}
	}
	run("fig11", func() error {
		fmt.Println("Figure 11: error rate vs database size, U=0 (ARCS vs C4.5 rules)")
		return comparison(0, false)()
	})
	run("fig12", func() error {
		fmt.Println("Figure 12: error rate vs database size, U=10%")
		return comparison(0.10, false)()
	})
	run("fig13", func() error {
		fmt.Println("Figure 13: number of rules produced, U=0")
		return comparison(0, false)()
	})
	run("fig14", func() error {
		fmt.Println("Figure 14: number of rules produced, U=10%")
		return comparison(0.10, false)()
	})

	run("fig15", func() error {
		fmt.Println("Figure 15: ARCS scale-up (streaming, constant memory)")
		rows, err := experiments.Scaleup(scaleupSizes)
		if err != nil {
			return err
		}
		fmt.Printf("%12s %12s %16s\n", "tuples", "time", "tuples/sec")
		for _, r := range rows {
			fmt.Printf("%12d %12s %16.0f\n", r.N, experiments.FormatDuration(r.Elapsed), r.TuplesPerSec)
		}
		fmt.Printf("per-tuple time ratio (largest/smallest): %.2f (<= ~1 means linear or better)\n",
			experiments.LinearityCheck(rows))
		return nil
	})

	run("table2", func() error {
		fmt.Println("Table 2: comparative execution times (seconds)")
		rows, err := sweep(0)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderComparison(rows, true))
		return nil
	})

	run("bins", func() error {
		fmt.Println("§4.2 bin-granularity study: error vs bins per attribute")
		rows, err := experiments.BinGranularity(max(50_000 / *scale, 10_000), []int{10, 20, 30, 40, 50}, *testN)
		if err != nil {
			return err
		}
		fmt.Printf("%6s %12s %12s %16s\n", "bins", "test err%", "rules", "geometric err%")
		for _, r := range rows {
			fmt.Printf("%6d %12.2f %12d %16.2f\n", r.Bins, r.ErrorPct, r.NumRules, r.GeomErrorPct)
		}
		return nil
	})

	run("why", func() error {
		fmt.Println("§1 motivation: rules a user must read, same data (F2, U=10%), three regimes")
		res, err := experiments.WhyClustering(max(50_000 / *scale, 10_000), 50)
		if err != nil {
			return err
		}
		fmt.Printf("  raw 2D cell rules:              %d\n", res.CellRules)
		fmt.Printf("  quantitative interval rules:    %d   (Srikant-Agrawal, interest-pruned)\n", res.QuantRules)
		fmt.Printf("  ARCS clustered rules:           %d   (%.2f%% verification error)\n",
			res.ClusteredRules, res.ClusteredErrPct)
		return nil
	})

	run("ablation", func() error {
		fmt.Println("design-choice ablations (noisy F2, 20k tuples unless scaled)")
		studies, err := experiments.Ablations(max(20_000 / *scale, 5_000))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblations(studies))
		return nil
	})

	run("feedbackloop", func() error {
		fmt.Println("threshold-search feedback loop: sequential vs batched worker pool, cache cold vs warm")
		report, err := experiments.FeedbackLoop(figSizes[0], runtime.GOMAXPROCS(0), c.SpanSink())
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFeedbackLoop(report))
		// Append to the trajectory rather than overwriting: the latest
		// report stays readable at the top level, and every run lands in
		// the history keyed by git SHA + timestamp.
		const out = "BENCH_feedbackloop.json"
		if err := experiments.AppendBenchReport(out, report, experiments.GitSHA(), time.Now()); err != nil {
			return err
		}
		fmt.Printf("appended run to %s\n", out)
		return nil
	})

	run("ingest", func() error {
		fmt.Println("counting pass: dense vs sparse backend, sequential vs sharded ingest (byte-identity re-checked)")
		report, benchErr := experiments.IngestBench(ctx, ingestSizes, 50, workers)
		if benchErr != nil && report == nil {
			return benchErr
		}
		if report.Partial {
			// Canceled mid-run (SIGINT or -timeout): the completed sizes
			// are valid measurements — print and append them, then let
			// the suite exit with the cancellation status.
			slog.Warn("ingest bench canceled; appending partial trajectory", "cause", benchErr)
		} else if benchErr != nil {
			return benchErr
		}
		fmt.Print(experiments.RenderIngest(report))
		const out = "BENCH_ingest.json"
		if len(report.Sizes) > 0 {
			rec := experiments.IngestBenchRecord(report, experiments.GitSHA(), time.Now())
			if err := experiments.AppendBenchRecord(out, rec); err != nil {
				return err
			}
			fmt.Printf("appended run to %s\n", out)
		}
		return nil
	})

	run("quality", func() error {
		fmt.Println("mining quality across all 10 classification functions: error, recovery, interestingness")
		report, err := experiments.Quality(max(50_000 / *scale, 5_000), *testN)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderQuality(report))
		// Append to the quality trajectory: one row per function, keyed
		// by git SHA + timestamp, so `arcstrace diff BENCH_quality.json`
		// gates error-rate and recovery-IoU drift across commits.
		const out = "BENCH_quality.json"
		rec := experiments.QualityBenchRecord(report, experiments.GitSHA(), time.Now())
		if err := experiments.AppendBenchRecord(out, rec); err != nil {
			return err
		}
		fmt.Printf("appended run to %s\n", out)
		return nil
	})

	run("smoothing", func() error {
		fmt.Println("Figure 7: rule grid before and after the low-pass filter")
		before, after, err := experiments.SmoothingDemo(max(20_000 / *scale, 5_000), 30)
		if err != nil {
			return err
		}
		fmt.Printf("before:\n%s\nafter:\n%s", before, after)
		return nil
	})

	// A budget that expired while the final experiment was running has no
	// later checkpoint to notice it; report the overrun in the exit code.
	if err := ctx.Err(); err != nil && !canceled {
		slog.Warn("budget expired during the suite; results printed are partial", "cause", err)
		c.MarkCanceled()
	}
}

// parseWorkers parses the -ingest-workers list ("2,4,8").
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -ingest-workers entry %q", part)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-ingest-workers is empty")
	}
	return out, nil
}

// parseSizes parses the -ingest-tuples list, applies -scale and clamps
// each size to a floor that still exercises the sharded path.
func parseSizes(s string, scale int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -ingest-tuples entry %q", part)
		}
		out = append(out, max(n/scale, 50_000))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-ingest-tuples is empty")
	}
	// Deduplicate after clamping (aggressive -scale collapses sizes).
	dedup := out[:0]
	for _, v := range out {
		if len(dedup) == 0 || dedup[len(dedup)-1] != v {
			dedup = append(dedup, v)
		}
	}
	return dedup, nil
}

func scaled(sizes []int, scale int) []int {
	out := make([]int, len(sizes))
	for i, s := range sizes {
		out[i] = s / scale
		if out[i] < 5_000 {
			out[i] = 5_000
		}
	}
	// Deduplicate after clamping.
	dedup := out[:0]
	for _, v := range out {
		if len(dedup) == 0 || dedup[len(dedup)-1] != v {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
