// Command synthgen emits synthetic classification data as CSV, following
// the generator of Agrawal et al. (the ARCS paper's evaluation data):
// nine person attributes plus a group label assigned by one of ten
// classification functions, with optional perturbation, outliers and
// group-fraction control.
//
// Usage:
//
//	synthgen -n 50000 -function 2 -perturb 0.05 -outliers 0.10 > data.csv
//
// -truth-out additionally writes the function's ground-truth metadata
// (recommended mining pair, domain, generating regions when the
// function is rectangular in that pair, and the generator parameters)
// as JSON, for quality evaluation of segmentations mined from the CSV.
//
// Exit codes: 0 success, 1 fatal error, 2 usage, 3 canceled (SIGINT or
// -timeout) — rows generated before cancellation are flushed first.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/synth"
)

const exitCanceled = 3

func main() {
	var (
		n         = flag.Int("n", 10_000, "number of tuples")
		function  = flag.Int("function", 2, "classification function 1-10")
		perturb   = flag.Float64("perturb", 0.05, "perturbation factor P")
		outliers  = flag.Float64("outliers", 0, "outlier fraction U")
		fracA     = flag.Float64("fraca", 0.40, "target fraction of Group A (0 disables)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "output file (default stdout)")
		truthOut  = flag.String("truth-out", "", "also write the function's ground-truth metadata (mining pair, domain, generating regions, generator config) as JSON to this file")
		timeout   = flag.Duration("timeout", 0, "generation budget; on expiry flush the rows written so far and exit 3")
		verbose   = flag.Bool("v", false, "debug logging")
		logFormat = flag.String("log-format", "text", "log output format: text, json")
	)
	obs.ParseFlags(flag.CommandLine, os.Args[1:]) // exits 2 on a stray argument
	if _, err := obs.SetupSlog(os.Stderr, *logFormat, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM and -timeout cancel generation cooperatively: the
	// pass stops at its next checkpoint, the rows already emitted are
	// flushed (output truncated at a row boundary), and the process
	// exits 3.
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

	cfg := synth.Config{
		Function:        *function,
		N:               *n,
		Seed:            *seed,
		Perturbation:    *perturb,
		OutlierFraction: *outliers,
		FracA:           *fracA,
	}
	if *truthOut != "" {
		if err := writeTruth(*truthOut, cfg); err != nil {
			fatal(err)
		}
	}

	st, err := synth.NewStream(cfg)
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
	writeErr := dataset.WriteCSVContext(ctx, bw, st.Source())
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if writeErr != nil {
		if errors.Is(writeErr, context.Canceled) || errors.Is(writeErr, context.DeadlineExceeded) {
			slog.Warn("generation canceled; partial output flushed", "cause", writeErr)
			os.Exit(exitCanceled)
		}
		fatal(writeErr)
	}
	slog.Debug("generated synthetic data",
		"tuples", *n, "function", *function, "perturb", *perturb, "outliers", *outliers)
}

// truthDoc is the -truth-out JSON document: the exported ground truth
// of the generated function plus the generator parameters that produced
// the CSV, so a quality harness can evaluate a segmentation mined from
// the file without re-deriving either.
type truthDoc struct {
	synth.Truth
	N               int     `json:"n"`
	Seed            int64   `json:"seed"`
	Perturbation    float64 `json:"perturbation"`
	OutlierFraction float64 `json:"outlier_fraction"`
	FracA           float64 `json:"frac_a"`
}

// writeTruth emits the ground-truth metadata document for cfg.
func writeTruth(path string, cfg synth.Config) error {
	tr, err := synth.GroundTruth(cfg.Function)
	if err != nil {
		return err
	}
	doc := truthDoc{
		Truth: tr,
		N:     cfg.N, Seed: cfg.Seed,
		Perturbation:    cfg.Perturbation,
		OutlierFraction: cfg.OutlierFraction,
		FracA:           cfg.FracA,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
