package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/report"
	"arcs/internal/synth"
)

// genConfig is the input distribution of every workload: paper function
// 2 with Table 1's 5% perturbation, 10% outliers and 40% group A.
func genConfig(seed int64, n int) synth.Config {
	return synth.Config{Function: 2, N: n, Seed: seed,
		Perturbation: 0.05, OutlierFraction: 0.10, FracA: 0.4}
}

// cliConfig is what cmd/arcs builds from its default flags for
// `-x age -y salary -crit group -value A`: 50 bins, equi-width binning,
// binary smoothing, walk search.
func cliConfig() (core.Config, error) {
	budget, err := counts.ParseBudget("")
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins:            50,
		PruneFraction:      0.01,
		FixedMinSupport:    0.0001,
		FixedMinConfidence: 0.39,
		Seed:               1,
		MemBudget:          budget,
		CountsBackend:      "auto",
		Walk:               optimizer.ThresholdWalk{},
		Smoothing:          core.SmoothBinary,
		BinStrategy:        core.BinEquiWidth,
		Search:             core.SearchWalk,
	}, nil
}

// input is a generated CSV file.
type input struct {
	path   string
	bytes  int64
	tuples int
}

// writeInput writes src as a CSV file in the run's scratch directory.
// Generation is set-up the benchmark does not time.
func writeInput(b *bench, name string, src dataset.Source, tuples int) (input, error) {
	in := input{path: filepath.Join(b.dir, name), tuples: tuples}
	f, err := os.Create(in.path)
	if err != nil {
		return in, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := dataset.WriteCSV(w, src); err != nil {
		f.Close()
		return in, fmt.Errorf("generating %s: %w", name, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return in, fmt.Errorf("generating %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return in, err
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return in, err
	}
	in.bytes = st.Size()
	return in, nil
}

// hiresInput writes the remine-hires and apply-serve file: the generator
// projected onto the age, salary and group columns.
func hiresInput(b *bench) (input, error) {
	n := b.size.hiresTuples
	st, err := synth.NewStream(genConfig(b.seed, n))
	if err != nil {
		return input{}, err
	}
	full := st.Schema()
	schema := dataset.NewSchema(
		dataset.Attribute{Name: synth.AttrAge, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrSalary, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrGroup, Kind: dataset.Categorical},
	)
	for _, label := range full.Attr(synth.AttrGroup).Categories() {
		if _, err := schema.Attr(synth.AttrGroup).CategoryCode(label); err != nil {
			return input{}, err
		}
	}
	row := make(dataset.Tuple, full.Len())
	src := dataset.NewFuncSource(schema, n, func(i int, out dataset.Tuple) {
		st.At(i, row)
		out[0], out[1], out[2] = row[synth.ColAge], row[synth.ColSalary], row[synth.ColGroup]
	})
	return writeInput(b, "hires.csv", src, n)
}

// hiresConfig segments every group of the narrow file at high grid
// resolution.
func hiresConfig(bins int) core.Config {
	return core.Config{XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, NumBins: bins}
}

// loadCSV is cmd/arcs's input path: infer the schema from a prefix, then
// stream the file through the resilient layer (two retries, strict
// quarantine) and materialize it. It records dataset.infer and
// dataset.load spans under parent.
func loadCSV(parent obs.Span, o *obs.Observer, in input) (*dataset.Table, error) {
	sp := parent.Child("dataset.infer")
	schema, err := dataset.InferCSVSchema(in.path, 10_000)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = parent.Child("dataset.load")
	cs, err := dataset.OpenCSVStream(in.path, schema)
	if err != nil {
		return nil, err
	}
	rs := dataset.NewResilient(cs, dataset.Retry{Max: 2, Seed: 1}, dataset.Quarantine{})
	if o != nil {
		rs.Observe(o.Registry())
	}
	tb, err := dataset.Materialize(rs)
	if cerr := cs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	sp.End(obs.Int("rows", tb.Len()), obs.Int("quarantined", int(rs.Stats().Total())),
		obs.Int("bytes", int(in.bytes)))
	if tb.Len() != in.tuples {
		return nil, fmt.Errorf("loaded %d rows from %s, wrote %d", tb.Len(), in.path, in.tuples)
	}
	return tb, nil
}

// buildSystem loads a CSV file and builds a System over it, recording a
// bench.setup span with the load and build beneath it.
func buildSystem(ctx context.Context, o *obs.Observer, in input, cfg core.Config) (*core.System, error) {
	root := o.Root("bench.setup")
	defer root.End()
	tb, err := loadCSV(root, o, in)
	if err != nil {
		return nil, err
	}
	cfg.Observer = o
	sp := root.Child("core.build")
	sys, err := core.NewContext(ctx, tb, cfg)
	sp.End()
	return sys, err
}

// mine builds a System over src and runs the feedback loop.
func mine(ctx context.Context, src dataset.Source, cfg core.Config) (*core.Result, error) {
	sys, err := core.NewContext(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// sameResult is the mining oracle: rules with their bounds, supports and
// confidences, the chosen thresholds and the FP/FN counts must all be
// identical.
func sameResult(want, got *core.Result) error {
	switch {
	case got == nil:
		return errors.New("no result")
	case got.Degraded:
		return errors.New("degraded result")
	case len(got.Rules) != len(want.Rules):
		return fmt.Errorf("%s: %d rules, want %d", want.CritValue, len(got.Rules), len(want.Rules))
	case got.MinSupport != want.MinSupport || got.MinConfidence != want.MinConfidence:
		return fmt.Errorf("%s: thresholds (%g, %g), want (%g, %g)", want.CritValue,
			got.MinSupport, got.MinConfidence, want.MinSupport, want.MinConfidence)
	case got.Errors != want.Errors:
		return fmt.Errorf("%s: errors %+v, want %+v", want.CritValue, got.Errors, want.Errors)
	}
	for i := range want.Rules {
		if got.Rules[i] != want.Rules[i] {
			return fmt.Errorf("%s: rule %d is %v (support %g, confidence %g), want %v (support %g, confidence %g)",
				want.CritValue, i, got.Rules[i], got.Rules[i].Support, got.Rules[i].Confidence,
				want.Rules[i], want.Rules[i].Support, want.Rules[i].Confidence)
		}
	}
	return nil
}

// runCSVMine times cmd/arcs end to end on a 1M-tuple, 10-column file:
// most of an op is CSV parsing. Its set-up is the same mining from the
// generated tuples held in memory, which is also the oracle.
func runCSVMine(b *bench) error {
	n := b.size.csvTuples
	st, err := synth.NewStream(genConfig(b.seed, n))
	if err != nil {
		return err
	}
	in, err := writeInput(b, "csv-mine.csv", st.Source(), n)
	if err != nil {
		return err
	}
	cfg, err := cliConfig()
	if err != nil {
		return err
	}
	want, err := mine(b.ctx, st.Source(), cfg)
	if err != nil {
		return fmt.Errorf("oracle mining from the generator: %w", err)
	}
	if len(want.Rules) == 0 {
		return errors.New("oracle mined no rules")
	}
	tb, err := dataset.Materialize(st.Source())
	if err != nil {
		return err
	}
	for i := 0; i < b.size.setupReps; i++ {
		var res *core.Result
		if err := b.setup(func(*obs.Observer) error {
			res, err = mine(b.ctx, tb, cfg)
			return err
		}); err != nil {
			return fmt.Errorf("mining the in-memory table: %w", err)
		}
		if err := sameResult(want, res); err != nil {
			return fmt.Errorf("in-memory table against the generator: %w", err)
		}
	}

	var out bytes.Buffer
	b.loop(func(o *obs.Observer) (time.Duration, error) {
		start := time.Now()
		op := o.Root("bench.op")
		tb, err := loadCSV(op, o, in)
		if err != nil {
			return 0, err
		}
		cfg := cfg
		cfg.Observer = o
		sp := op.Child("core.build")
		sys, err := core.NewContext(b.ctx, tb, cfg)
		sp.End()
		if err != nil {
			return 0, err
		}
		sp = op.Child("core.run")
		res, err := sys.RunContext(b.ctx)
		sp.End()
		if err != nil {
			return 0, err
		}
		sp = op.Child("report.write")
		out.Reset()
		err = report.WriteResult(&out, res, report.Text)
		sp.End()
		d := time.Since(start)
		op.End()
		if err != nil {
			return 0, err
		}
		return d, sameResult(want, res)
	})
	b.perOp = float64(n)
	b.note("ops", float64(len(b.untracedOps)), "count", "untraced ops in the window")
	return nil
}

// runRemine times a cold SegmentAll on a System already built from a
// 200k-tuple, 3-column file at 200 bins: the op is all threshold search.
// Set-up is the CSV → System build.
func runRemine(b *bench) error {
	in, err := hiresInput(b)
	if err != nil {
		return err
	}
	cfg := hiresConfig(b.size.hiresBins)
	var sys *core.System
	for i := 0; i < b.size.setupReps; i++ {
		if err := b.setup(func(o *obs.Observer) error {
			sys, err = buildSystem(b.ctx, o, in, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	// A traced run records only into the System built under its
	// observer; its untraced ops go to a second, identical System.
	plain, traced := sys, (*core.System)(nil)
	if b.tr != nil {
		traced = sys
		if plain, err = buildSystem(b.ctx, nil, in, cfg); err != nil {
			return err
		}
	}

	var want map[string]*core.Result
	b.loop(func(o *obs.Observer) (time.Duration, error) {
		s := plain
		if o != nil {
			s = traced
		}
		start := time.Now()
		op := o.Root("bench.op")
		sp := op.Child("core.reset_probe_cache")
		s.ResetProbeCache()
		sp.End()
		sp = op.Child("core.run")
		got, err := s.SegmentAllContext(b.ctx)
		sp.End()
		d := time.Since(start)
		op.End()
		if err != nil {
			return 0, err
		}
		if want == nil {
			if len(got) == 0 || got[synth.GroupA] == nil || len(got[synth.GroupA].Rules) == 0 {
				return 0, fmt.Errorf("first query mined no rules for group %s", synth.GroupA)
			}
			want = got
			return d, nil
		}
		if len(got) != len(want) {
			return 0, fmt.Errorf("%d groups segmented, first query had %d", len(got), len(want))
		}
		for label, w := range want {
			if err := sameResult(w, got[label]); err != nil {
				return 0, err
			}
		}
		return d, nil
	})
	b.perOp = float64(in.tuples)
	b.note("query_p50_ms", 1000*median(b.untracedOps), "ms", fmt.Sprintf("n=%d cold SegmentAll queries", len(b.untracedOps)))
	b.note("query_p90_ms", 1000*quantile(b.untracedOps, 0.9), "ms", fmt.Sprintf("n=%d", len(b.untracedOps)))
	return nil
}
