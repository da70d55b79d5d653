// Command arcsapply applies a saved segmentation model (produced by
// `arcs -save`) to a CSV file, completing the paper's deployment story:
// segment the existing customer base once, then score prospect lists
// against the saved model.
//
// Usage:
//
//	arcsapply -model segment.json -in prospects.csv [-matched-only] > scored.csv
//	arcsapply -registry ./models [-model-version m000003] -in prospects.csv
//
// -model loads a model file directly; -registry loads from a versioned
// model registry (the same store arcsd serves from), defaulting to the
// active version so the CLI and the daemon score with one validation
// and bind path.
//
// Output is the input CSV with an extra column holding "yes"/"no" for
// segment membership; -matched-only emits only the matching rows,
// without the extra column.
//
// Exit codes: 0 success, 1 fatal error, 2 usage, 3 canceled (SIGINT or
// -timeout) — the rows scored before cancellation are flushed first.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
)

const exitCanceled = 3

func main() {
	var (
		modelPath   = flag.String("model", "", "segmentation model JSON file")
		registryDir = flag.String("registry", "", "model registry directory (alternative to -model)")
		version     = flag.String("model-version", "", "registry version to load (default: the active one)")
		in          = flag.String("in", "", "input CSV file (required)")
		out         = flag.String("out", "", "output file (default stdout)")
		matchedOnly = flag.Bool("matched-only", false, "emit only matching rows, without the membership column")
		column      = flag.String("column", "in_segment", "name of the membership column")
		timeout     = flag.Duration("timeout", 0, "scoring budget; on expiry flush the rows scored so far and exit 3")
		maxBadRows  = flag.Int("max-bad-rows", 0, "input rows to quarantine before failing; -1 unlimited, 0 strict")
		retries     = flag.Int("retries", 2, "retries per read for transient input errors")
		verbose     = flag.Bool("v", false, "debug logging")
		logFormat   = flag.String("log-format", "text", "log output format: text, json")
	)
	obs.ParseFlags(flag.CommandLine, os.Args[1:]) // exits 2 on a stray argument
	if (*modelPath == "") == (*registryDir == "") || *in == "" {
		fmt.Fprintln(os.Stderr, "arcsapply: need -in plus exactly one of -model or -registry")
		flag.Usage()
		os.Exit(2)
	}
	if *version != "" && *registryDir == "" {
		fmt.Fprintln(os.Stderr, "arcsapply: -model-version needs -registry")
		flag.Usage()
		os.Exit(2)
	}
	if _, err := obs.SetupSlog(os.Stderr, *logFormat, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "arcsapply:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM and -timeout cancel the scoring pass cooperatively:
	// the stream stops at its next checkpoint, the rows already scored are
	// flushed, and the process exits 3.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// After the first cancellation, restore default signal handling so a
	// second Ctrl-C kills the process the ordinary way instead of being
	// swallowed while the partial output flushes.
	go func() { <-ctx.Done(); stopSignals() }()

	// Both load paths end in the same read-validation: a file goes
	// through segment.Read directly, a registry version additionally
	// gets its manifest checksum verified before the document is
	// trusted — the exact gate the daemon serves behind.
	var model *segment.Model
	if *registryDir != "" {
		reg, err := registry.Open(*registryDir, registry.Options{})
		if err != nil {
			fatal(err)
		}
		id := *version
		if id == "" {
			if id = reg.ActiveID(); id == "" {
				fatal(fmt.Errorf("registry %s has no active model; activate one or pass -model-version", *registryDir))
			}
		}
		m, man, err := reg.Load(id)
		if err != nil {
			fatal(err)
		}
		model = m
		slog.Debug("loaded model from registry", "version", id,
			"rules", man.Rules, "source_run", man.SourceRun)
	} else {
		mf, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		m, err := segment.Read(mf)
		mf.Close()
		if err != nil {
			fatal(err)
		}
		model = m
	}

	schema, err := dataset.InferCSVSchema(*in, 10_000)
	if err != nil {
		fatal(err)
	}
	cs, err := dataset.OpenCSVStream(*in, schema)
	if err != nil {
		fatal(err)
	}
	defer cs.Close()
	// The resilient layer retries transient read errors with backoff and
	// quarantines unparseable rows (with row numbers) within the
	// -max-bad-rows budget, so one corrupt prospect row doesn't abort the
	// whole scoring run unless the operator asked for strictness.
	src := dataset.NewResilient(cs,
		dataset.Retry{Max: *retries},
		dataset.Quarantine{MaxBadRows: *maxBadRows,
			OnBad: func(reason string, row int, err error) {
				slog.Debug("quarantined row", "reason", reason, "row", row, "err", err)
			}})

	applier, err := model.Bind(schema)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := csv.NewWriter(bw)

	header := schema.Names()
	if !*matchedOnly {
		header = append(header, *column)
	}
	if err := cw.Write(header); err != nil {
		fatal(err)
	}

	rec := make([]string, schema.Len(), schema.Len()+1)
	matched, total := 0, 0
	applyErr := applier.ApplyContext(ctx, src, func(t dataset.Tuple, covered bool) error {
		total++
		if covered {
			matched++
		}
		if *matchedOnly && !covered {
			return nil
		}
		for i, v := range t {
			a := schema.At(i)
			if a.Kind == dataset.Categorical {
				rec[i] = a.Category(int(v))
			} else {
				rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		row := rec
		if !*matchedOnly {
			member := "no"
			if covered {
				member = "yes"
			}
			row = append(rec, member)
		}
		return cw.Write(row)
	})
	// Flush before classifying the error so a canceled pass still delivers
	// every row scored up to the checkpoint.
	cw.Flush()
	if err := cw.Error(); err != nil {
		fatal(err)
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if st := src.Stats(); st.Total() > 0 || st.Retries > 0 {
		slog.Warn("input degradation",
			"rows_quarantined", st.Total(), "by_reason", st.Quarantined,
			"retries", st.Retries)
	}
	if applyErr != nil {
		if wasCanceled(applyErr) {
			slog.Warn("scoring canceled; partial output flushed",
				"rows_scored", total, "matched", matched, "cause", applyErr)
			os.Exit(exitCanceled)
		}
		fatal(applyErr)
	}
	slog.Info("scored rows against segment",
		"matched", matched, "total", total,
		"crit_attr", model.CritAttr, "crit_value", model.CritValue)
}

// wasCanceled reports whether err stems from context cancellation
// (SIGINT/SIGTERM) or deadline expiry (-timeout).
func wasCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
