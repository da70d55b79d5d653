package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"arcs/internal/binning"
	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/synth"
)

// IngestVariant is one measured configuration of the counting pass.
type IngestVariant struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// Seconds is the wall-clock time of the pass alone. Streamed sizes
	// include tuple synthesis (the generator runs inside each shard's
	// worker, exactly like streaming ingest from disk or network would).
	Seconds    float64 `json:"seconds"`
	TuplesPerS float64 `json:"tuples_per_sec"`
	// SpeedupVsDense is wall-clock relative to the sequential dense
	// build at the same size (>1 means faster).
	SpeedupVsDense float64 `json:"speedup_vs_dense"`
}

// IngestSizeRow is the full measurement of one workload size: the dense
// baseline plus every sharded worker count, byte-identity re-checked.
type IngestSizeRow struct {
	Tuples int `json:"tuples"`
	// Identical reports that every sharded build at this size produced
	// bytes equal to the dense build.
	Identical bool            `json:"results_identical"`
	Variants  []IngestVariant `json:"variants"`
	// BestSpeedup is the largest sharded SpeedupVsDense at this size —
	// the number the crossover summary and the perf gate read.
	BestSpeedup float64 `json:"best_speedup"`
}

// IngestReport is the JSON document emitted by the ingest experiment
// (BENCH_ingest.json history records). Earlier revisions measured one
// size; Tuples/Identical/Variants keep that single-size shape at the
// top level (mirroring the largest completed size) so existing readers
// of the trajectory continue to parse, while Sizes carries the per-size
// rows and Crossover the scaling summary.
type IngestReport struct {
	Experiment string `json:"experiment"`
	Tuples     int    `json:"tuples"`
	Identical  bool   `json:"results_identical"`
	// Crossover is the smallest measured size at which some sharded
	// worker count beat the dense sequential build (BestSpeedup > 1);
	// zero when sharding never won. This is the scaling headline the
	// arcstrace diff gate compares across runs.
	Crossover int `json:"crossover"`
	// Partial marks a run cut short by cancellation: the rows present
	// are valid, later sizes are missing.
	Partial  bool            `json:"partial,omitempty"`
	Sizes    []IngestSizeRow `json:"sizes"`
	Variants []IngestVariant `json:"variants"`
}

// IngestSpec prepares the counting-pass inputs over a materialized
// in-memory table: the Figure 11 workload with binners fitted to the
// realized columns. Suitable for sizes that comfortably fit in RAM;
// the streamed spec below scales beyond that.
func IngestSpec(n, bins int) (*dataset.Table, counts.Spec, error) {
	gen, err := synthSource(dataConfig(n, 0.10, DefaultSeed))
	if err != nil {
		return nil, counts.Spec{}, err
	}
	tab, err := dataset.Materialize(gen)
	if err != nil {
		return nil, counts.Spec{}, err
	}
	schema := tab.Schema()
	xIdx := schema.MustIndex(synth.AttrAge)
	yIdx := schema.MustIndex(synth.AttrSalary)
	critIdx := schema.MustIndex(synth.AttrGroup)
	xb, err := binning.NewEquiWidthFromData(tab.Column(xIdx), bins)
	if err != nil {
		return nil, counts.Spec{}, err
	}
	yb, err := binning.NewEquiWidthFromData(tab.Column(yIdx), bins)
	if err != nil {
		return nil, counts.Spec{}, err
	}
	return tab, counts.Spec{
		XIdx: xIdx, YIdx: yIdx, CritIdx: critIdx,
		XBinner: xb, YBinner: yb,
		NSeg: schema.At(critIdx).NumCategories(),
	}, nil
}

// IngestStreamSpec prepares the counting-pass inputs as a constant-
// memory stream: the synth.Stream as a shardable dataset.FuncSource,
// with fixed-range equi-width binners over the known age/salary domains
// (no fitting pass — the generator's domains are the paper's, so
// fitting would only rediscover them). This is how the bench reaches
// 10M-100M tuples without a 100M-row table in RAM: each shard
// synthesizes its own index range on the fly.
func IngestStreamSpec(n, bins int) (*dataset.FuncSource, counts.Spec, error) {
	src, err := synthSource(dataConfig(n, 0.10, DefaultSeed))
	if err != nil {
		return nil, counts.Spec{}, err
	}
	schema := src.Schema()
	xIdx := schema.MustIndex(synth.AttrAge)
	yIdx := schema.MustIndex(synth.AttrSalary)
	critIdx := schema.MustIndex(synth.AttrGroup)
	xb, err := binning.NewEquiWidth(synth.AgeMin, synth.AgeMax, bins)
	if err != nil {
		return nil, counts.Spec{}, err
	}
	yb, err := binning.NewEquiWidth(synth.SalaryMin, synth.SalaryMax, bins)
	if err != nil {
		return nil, counts.Spec{}, err
	}
	return src, counts.Spec{
		XIdx: xIdx, YIdx: yIdx, CritIdx: critIdx,
		XBinner: xb, YBinner: yb,
		NSeg: schema.At(critIdx).NumCategories(),
	}, nil
}

// IngestBench measures the counting pass at each workload size: the
// sequential dense build, then the sequential sparse build, then the
// sharded dense build at each worker count — verifying byte-identity
// of every variant's snapshot against the dense baseline and locating
// the dense-vs-sharded crossover across sizes. Tuples are streamed
// (IngestStreamSpec), so memory stays constant no matter the size. A canceled context stops between
// measurements and returns the completed rows as a partial report
// alongside the cancellation error, so long runs degrade to a usable
// partial trajectory append.
func IngestBench(ctx context.Context, sizes []int, bins int, workerCounts []int) (*IngestReport, error) {
	report := &IngestReport{Experiment: "ingest", Identical: true}
	snapshot := func(b counts.Backend) ([]byte, error) {
		var buf bytes.Buffer
		if err := counts.Snapshot(b, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	finishPartial := func(err error) (*IngestReport, error) {
		report.Partial = true
		return report, err
	}
	for _, n := range sizes {
		if err := ctx.Err(); err != nil {
			return finishPartial(err)
		}
		src, spec, err := IngestStreamSpec(n, bins)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		dense, err := counts.Build(ctx, src, spec, counts.Options{Kind: counts.Dense, MemBudget: -1})
		if err != nil {
			if ctx.Err() != nil {
				return finishPartial(ctx.Err())
			}
			return nil, err
		}
		denseSecs := time.Since(start).Seconds()
		ref, err := snapshot(dense)
		if err != nil {
			return nil, err
		}
		row := IngestSizeRow{
			Tuples: n, Identical: true,
			Variants: []IngestVariant{{
				Name: "dense", Workers: 1, Seconds: denseSecs,
				TuplesPerS: float64(n) / denseSecs, SpeedupVsDense: 1,
			}},
		}
		// The backend dimension: the same pass through the sparse
		// substrate, sequential so the comparison isolates the backend's
		// per-tuple cost from sharding effects.
		if err := ctx.Err(); err != nil {
			return finishPartial(err)
		}
		start = time.Now()
		sparse, err := counts.Build(ctx, src, spec, counts.Options{Kind: counts.Sparse})
		if err != nil {
			if ctx.Err() != nil {
				return finishPartial(ctx.Err())
			}
			return nil, err
		}
		secs := time.Since(start).Seconds()
		got, err := snapshot(sparse)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, ref) {
			row.Identical = false
			report.Identical = false
		}
		row.Variants = append(row.Variants, IngestVariant{
			Name: "sparse", Workers: 1, Seconds: secs,
			TuplesPerS:     float64(n) / secs,
			SpeedupVsDense: denseSecs / secs,
		})
		for _, w := range workerCounts {
			if err := ctx.Err(); err != nil {
				return finishPartial(err)
			}
			start := time.Now()
			sh, _, err := counts.BuildSharded(ctx, src, w, spec, counts.Options{Kind: counts.Dense, MemBudget: -1})
			if err != nil {
				if ctx.Err() != nil {
					return finishPartial(ctx.Err())
				}
				return nil, err
			}
			secs := time.Since(start).Seconds()
			got, err := snapshot(sh)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, ref) {
				row.Identical = false
				report.Identical = false
			}
			speedup := denseSecs / secs
			if speedup > row.BestSpeedup {
				row.BestSpeedup = speedup
			}
			row.Variants = append(row.Variants, IngestVariant{
				Name:    fmt.Sprintf("sharded-%d", w),
				Workers: w, Seconds: secs,
				TuplesPerS:     float64(n) / secs,
				SpeedupVsDense: speedup,
			})
		}
		report.Sizes = append(report.Sizes, row)
		report.Tuples = n
		report.Variants = row.Variants
		if report.Crossover == 0 && row.BestSpeedup > 1 {
			report.Crossover = n
		}
	}
	if !report.Identical {
		return report, fmt.Errorf("experiments: sharded counting pass diverged from the dense build")
	}
	return report, nil
}

// RenderIngest formats the report as per-size aligned tables with the
// crossover summary.
func RenderIngest(r *IngestReport) string {
	var out string
	for _, row := range r.Sizes {
		out += fmt.Sprintf("--- %d tuples ---\n", row.Tuples)
		out += fmt.Sprintf("%12s %8s %10s %14s %9s\n",
			"variant", "workers", "time", "tuples/sec", "speedup")
		for _, v := range row.Variants {
			out += fmt.Sprintf("%12s %8d %10s %14.0f %8.2fx\n",
				v.Name, v.Workers,
				FormatDuration(time.Duration(v.Seconds*float64(time.Second))),
				v.TuplesPerS, v.SpeedupVsDense)
		}
	}
	if r.Crossover > 0 {
		out += fmt.Sprintf("crossover: sharded ingest first beats dense at %d tuples\n", r.Crossover)
	} else {
		out += "crossover: none measured — dense won at every size (add workers or tuples)\n"
	}
	if r.Partial {
		out += "NOTE: run canceled before all sizes completed; rows above are valid partial results\n"
	}
	return out
}

// IngestBenchRecord converts a report into the BENCH_*.json history
// schema: one phase timing per (variant, size), named
// ingest-dense-<n> / ingest-sharded-W-<n>, plus the crossover summary
// the diff gate compares.
func IngestBenchRecord(r *IngestReport, gitSHA string, now time.Time) BenchRecord {
	rec := BenchRecord{
		GitSHA:    gitSHA,
		Timestamp: now.UTC().Format(time.RFC3339),
		Tuples:    r.Tuples,
		Crossover: r.Crossover,
	}
	for _, row := range r.Sizes {
		for _, v := range row.Variants {
			rec.Phases = append(rec.Phases, core.PhaseTiming{
				Name: fmt.Sprintf("ingest-%s-%d", v.Name, row.Tuples), Seconds: v.Seconds,
			})
			if v.Workers > rec.Workers {
				rec.Workers = v.Workers
			}
		}
	}
	return rec
}
