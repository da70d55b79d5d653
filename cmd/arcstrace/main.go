// Command arcstrace analyzes the JSONL span traces written by
// `arcs -spans` and `arcsd -spans`, and compares BENCH_*.json records.
//
// Usage:
//
//	arcstrace summarize run.jsonl
//	    Print the per-phase tree (call counts, total/self time, share of
//	    the root) plus the trace's attached metrics snapshot.
//
//	arcstrace diff [-tolerance 20%] [-min-phase 5ms] [-min-count 16] old.jsonl new.jsonl
//	    Compare aggregate phase times and counters between two traces and
//	    exit non-zero when anything grew beyond the tolerance — the CI
//	    perf gate. With two BENCH_*.json trajectories the newest history
//	    record of each is compared instead (phase timings, the ingest
//	    crossover summary, and — for BENCH_quality.json records — the
//	    per-function quality rows: error-rate and recovery-IoU drift
//	    beyond noise floors); with a single trajectory its last two
//	    records are compared.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"arcs/internal/experiments"
	"arcs/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summarize":
		err = summarize(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "arcstrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcstrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  arcstrace summarize run.jsonl
  arcstrace diff [-tolerance 20%] [-min-phase 5ms] [-min-count 16] old.jsonl new.jsonl
  arcstrace diff [flags] OLD_BENCH.json NEW_BENCH.json   (newest record of each)
  arcstrace diff [flags] BENCH.json                      (its last two records)
`)
}

func readTrace(path string) (*obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadTrace(f)
}

func summarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("summarize wants exactly one trace file")
	}
	t, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := obs.WritePhaseTree(os.Stdout, t.PhaseTree()); err != nil {
		return err
	}
	if len(t.Metrics) > 0 {
		fmt.Println("\nmetrics:")
		keys := make([]string, 0, len(t.Metrics))
		for k := range t.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-50s %g\n", k, t.Metrics[k])
		}
	}
	return nil
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	def := obs.DefaultDiffOptions
	tolerance := fs.String("tolerance", strconv.FormatFloat(100*def.Tolerance, 'g', -1, 64)+"%",
		"allowed growth before a phase or counter regresses (e.g. 20% or 0.2)")
	minPhase := fs.Duration("min-phase", def.MinPhase, "ignore phases faster than this in both traces")
	minCount := fs.Float64("min-count", def.MinCount, "ignore counters below this in both traces")
	fs.Parse(args)
	tol, err := parseTolerance(*tolerance)
	if err != nil {
		return err
	}
	opts := obs.DiffOptions{Tolerance: tol, MinPhase: *minPhase, MinCount: *minCount}

	// Bench-trajectory mode: .json args are BENCH_*.json files whose
	// newest history records are compared (phase timings plus the
	// ingest crossover summary). One trajectory file alone compares its
	// last two records.
	var regs []obs.Regression
	var oldName, newName string
	switch {
	case fs.NArg() == 1 && isBenchFile(fs.Arg(0)):
		bf, err := experiments.ReadBenchFile(fs.Arg(0))
		if err != nil {
			return err
		}
		oldRec, newRec, err := experiments.LastTwoRecords(bf)
		if err != nil {
			return err
		}
		regs = experiments.DiffBenchRecords(oldRec, newRec, opts)
		oldName, newName = fs.Arg(0)+"[-2]", fs.Arg(0)+"[-1]"
	case fs.NArg() == 2 && isBenchFile(fs.Arg(0)) && isBenchFile(fs.Arg(1)):
		oldBF, err := experiments.ReadBenchFile(fs.Arg(0))
		if err != nil {
			return err
		}
		newBF, err := experiments.ReadBenchFile(fs.Arg(1))
		if err != nil {
			return err
		}
		oldRec, err := experiments.LastRecord(oldBF)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
		newRec, err := experiments.LastRecord(newBF)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(1), err)
		}
		regs = experiments.DiffBenchRecords(oldRec, newRec, opts)
		oldName, newName = fs.Arg(0), fs.Arg(1)
	case fs.NArg() == 2:
		oldT, err := readTrace(fs.Arg(0))
		if err != nil {
			return err
		}
		newT, err := readTrace(fs.Arg(1))
		if err != nil {
			return err
		}
		regs = obs.DiffTraces(oldT, newT, opts)
		oldName, newName = fs.Arg(0), fs.Arg(1)
	default:
		return fmt.Errorf("diff wants two trace files (old new), two bench .json trajectories, or one trajectory (compares its last two records)")
	}
	if len(regs) == 0 {
		fmt.Printf("no regressions beyond %s (%s vs %s)\n", *tolerance, oldName, newName)
		return nil
	}
	fmt.Printf("%d regression(s) beyond %s:\n", len(regs), *tolerance)
	for _, r := range regs {
		fmt.Println(" ", r)
	}
	os.Exit(1)
	return nil
}

// isBenchFile distinguishes BENCH_*.json trajectories from JSONL span
// traces by extension.
func isBenchFile(path string) bool {
	return strings.HasSuffix(path, ".json")
}

// parseTolerance accepts "20%" or a bare fraction like "0.2": a
// finite, non-negative growth.
func parseTolerance(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad tolerance %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("tolerance must be finite and non-negative, got %q", s)
	}
	return v, nil
}
