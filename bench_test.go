// Benchmarks regenerating the paper's tables and figures (run with
//
//	go test -bench=. -benchmem
//
// ). Accuracy-style figures report their numbers as custom benchmark
// metrics (err_pct, rules); timing-style figures and tables are ordinary
// wall-clock benchmarks. The arcsbench command prints the same data as
// readable tables at full scale.
package arcs

import (
	"fmt"
	"reflect"
	"testing"

	"arcs/internal/bitop"
	"arcs/internal/core"
	"arcs/internal/experiments"
	"arcs/internal/filter"
	"arcs/internal/grid"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
)

// benchComparison is the shared body of the Figure 11-14 benchmarks: one
// ARCS + C4.5 comparison at the given outlier fraction, reported as
// metrics.
func benchComparison(b *testing.B, outliers float64) {
	b.Helper()
	const n = 20_000
	var rows []experiments.ComparisonRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Comparison([]int{n}, outliers, n, 5_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.ARCSErrorPct, "arcs_err_pct")
	b.ReportMetric(r.C45ErrorPct, "c45_err_pct")
	b.ReportMetric(float64(r.ARCSRules), "arcs_rules")
	b.ReportMetric(float64(r.C45Rules), "c45_rules")
}

// BenchmarkFig11ErrorRateU0 reproduces Figure 11: ARCS vs C4.5 error
// rate with no outliers.
func BenchmarkFig11ErrorRateU0(b *testing.B) { benchComparison(b, 0) }

// BenchmarkFig12ErrorRateU10 reproduces Figure 12: error rate with 10%
// outliers, where ARCS pulls ahead of C4.5.
func BenchmarkFig12ErrorRateU10(b *testing.B) { benchComparison(b, 0.10) }

// BenchmarkFig13RulesU0 reproduces Figure 13: rules produced with no
// outliers (ARCS stays at ~3, C4.5 grows with the data).
func BenchmarkFig13RulesU0(b *testing.B) { benchComparison(b, 0) }

// BenchmarkFig14RulesU10 reproduces Figure 14: rules produced with 10%
// outliers.
func BenchmarkFig14RulesU10(b *testing.B) { benchComparison(b, 0.10) }

// BenchmarkFig15Scaleup reproduces Figure 15: end-to-end ARCS execution
// time as the database scales. Throughput should stay roughly constant
// (linear scaling, constant memory).
func BenchmarkFig15Scaleup(b *testing.B) {
	for _, n := range []int{100_000, 500_000, 2_000_000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Scaleup([]int{n})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].TuplesPerSec, "tuples/sec")
			}
		})
	}
}

// BenchmarkTable2 reproduces Table 2: comparative execution times of
// ARCS vs C4.5 vs C4.5 + C4.5RULES on the same database.
func BenchmarkTable2(b *testing.B) {
	const n = 20_000
	test, err := experiments.TestTable(2_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ARCS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := experiments.RunARCS(n, 0, 50, test); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("C45", func(b *testing.B) {
		var treeSecs float64
		for i := 0; i < b.N; i++ {
			out, err := experiments.RunC45(n, 0, test)
			if err != nil {
				b.Fatal(err)
			}
			treeSecs = out.TreeTime.Seconds()
		}
		b.ReportMetric(treeSecs, "tree_sec")
	})
}

// BenchmarkBinGranularity reproduces the §4.2 bin-count study: error as
// the number of bins per attribute grows from 10 to 50.
func BenchmarkBinGranularity(b *testing.B) {
	test, err := experiments.TestTable(2_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, bins := range []int{10, 30, 50} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				_, rate, _, err := experiments.RunARCS(20_000, 0, bins, test)
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * rate
			}
			b.ReportMetric(errPct, "err_pct")
		})
	}
}

// BenchmarkSmoothing measures the Figure 7 preprocessing step, the 3×3
// low-pass filter, over a dense rule grid, at the paper's 50×50 preset
// and at the 1000×1000 size §3.3.1 mentions as comfortably in-memory.
func BenchmarkSmoothing(b *testing.B) {
	for _, size := range []int{50, 1000} {
		bm, _ := grid.New(size, size)
		for r := 0; r < size; r++ {
			for c := 0; c < size; c++ {
				if (r*31+c*17)%3 != 0 {
					bm.Set(r, c)
				}
			}
		}
		b.Run(fmt.Sprintf("grid=%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := filter.LowPass(bm, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkBitOpWords quantifies the word-packed bitmap against the
// naive bool-matrix BitOp on identical grids.
func BenchmarkBitOpWords(b *testing.B) {
	const size = 200
	bm, _ := grid.New(size, size)
	cells := make([][]bool, size)
	for r := 0; r < size; r++ {
		cells[r] = make([]bool, size)
		for c := 0; c < size; c++ {
			if (r/13+c/11)%2 == 0 {
				bm.Set(r, c)
				cells[r][c] = true
			}
		}
	}
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitop.Cluster(bm, bitop.Options{MinArea: 4})
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitop.ClusterNaive(cells, bitop.Options{MinArea: 4})
		}
	})
}

// benchSystem builds a reusable ARCS system over n tuples of Function 2
// data.
func benchSystem(b *testing.B, n int, cfg core.Config) *core.System {
	b.Helper()
	st, err := synth.NewStream(synth.Config{
		Function: 2, N: n, Seed: 1,
		Perturbation: 0.05, OutlierFraction: 0.10, FracA: 0.4,
	})
	if err != nil {
		b.Fatal(err)
	}
	if cfg.XAttr == "" {
		cfg.XAttr, cfg.YAttr = synth.AttrAge, synth.AttrSalary
		cfg.CritAttr, cfg.CritValue = synth.AttrGroup, synth.GroupA
	}
	sys, err := core.New(st.Source(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkAblationSmoothing compares segmentation error across the
// smoothing modes (off / binary / support-weighted).
func BenchmarkAblationSmoothing(b *testing.B) {
	for _, mode := range []core.SmoothingMode{core.SmoothOff, core.SmoothBinary, core.SmoothWeighted} {
		b.Run(mode.String(), func(b *testing.B) {
			sys := benchSystem(b, 20_000, core.Config{NumBins: 50, Smoothing: mode,
				Walk: optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100}})
			var errPct float64
			for i := 0; i < b.N; i++ {
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * res.Errors.Rate()
			}
			b.ReportMetric(errPct, "err_pct")
		})
	}
}

// BenchmarkAblationPruning compares cluster counts across pruning
// thresholds (0% disables §3.5's dynamic pruning).
func BenchmarkAblationPruning(b *testing.B) {
	for _, frac := range []float64{-1, 0.005, 0.01, 0.05} {
		name := fmt.Sprintf("prune=%g", frac)
		if frac < 0 {
			name = "prune=off"
		}
		b.Run(name, func(b *testing.B) {
			sys := benchSystem(b, 20_000, core.Config{NumBins: 50, PruneFraction: frac,
				Walk: optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100}})
			var rules float64
			for i := 0; i < b.N; i++ {
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				rules = float64(len(res.Rules))
			}
			b.ReportMetric(rules, "rules")
		})
	}
}

// BenchmarkAblationSearch compares the two threshold-search strategies
// on cost and probe count.
func BenchmarkAblationSearch(b *testing.B) {
	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"walk", core.Config{Search: core.SearchWalk,
			Walk: optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100}}},
		{"anneal", core.Config{Search: core.SearchAnneal,
			Anneal: optimizer.Anneal{Seed: 1, Iterations: 100}}},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			cfg.NumBins = 50
			sys := benchSystem(b, 20_000, cfg)
			var cost, probes float64
			for i := 0; i < b.N; i++ {
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
				probes = float64(res.Evaluations)
			}
			b.ReportMetric(cost, "mdl_cost")
			b.ReportMetric(probes, "probes")
		})
	}
}

// BenchmarkAblationBinStrategy compares equi-width, equi-depth and
// homogeneity binning on segmentation error.
func BenchmarkAblationBinStrategy(b *testing.B) {
	for _, strat := range []core.BinStrategy{core.BinEquiWidth, core.BinEquiDepth, core.BinHomogeneity, core.BinSupervised} {
		b.Run(strat.String(), func(b *testing.B) {
			sys := benchSystem(b, 20_000, core.Config{NumBins: 50, BinStrategy: strat,
				Walk: optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100}})
			var errPct float64
			for i := 0; i < b.N; i++ {
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * res.Errors.Rate()
			}
			b.ReportMetric(errPct, "err_pct")
		})
	}
}

// BenchmarkFeedbackLoop measures the full threshold-search feedback loop
// (a Walk over the Figure 11 workload) in three configurations, each on
// the default config: sequential and batched-cold, each a cold search
// (the probe cache emptied before every run) on its own System, and
// batched-warm (steady-state re-runs, e.g. repeated SegmentAll traffic).
// At 50 bins the grid is under the probe pool's floor, so every batch
// runs inline; the two cold variants keep their names so the history
// stays comparable. Before timing, it asserts the two Systems' searches
// return identical results.
func BenchmarkFeedbackLoop(b *testing.B) {
	walk := optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100}
	base := core.Config{NumBins: 50, Search: core.SearchWalk, Walk: walk}

	seqSys := benchSystem(b, 20_000, base)
	seqRes, err := seqSys.Run()
	if err != nil {
		b.Fatal(err)
	}
	parSys := benchSystem(b, 20_000, base)
	parRes, err := parSys.Run()
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes.Trace, parRes.Trace) ||
		seqRes.MinSupport != parRes.MinSupport ||
		seqRes.MinConfidence != parRes.MinConfidence ||
		seqRes.Cost != parRes.Cost ||
		!reflect.DeepEqual(seqRes.Rules, parRes.Rules) {
		b.Fatalf("batched search diverged from sequential baseline:\nseq: %+v\npar: %+v", seqRes, parRes)
	}

	loop := func(sys *core.System, cold bool) func(b *testing.B) {
		return func(b *testing.B) {
			probes := 0
			hitPct := 0.0
			for i := 0; i < b.N; i++ {
				if cold {
					sys.ResetProbeCache()
				}
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				probes += res.Evaluations
				hitPct = 100 * res.Cache.HitRate()
			}
			b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/sec")
			b.ReportMetric(hitPct, "cache_hit_pct")
		}
	}
	b.Run("sequential", loop(seqSys, true))
	b.Run("batched-cold", loop(parSys, true))
	b.Run("batched-warm", loop(parSys, false))
}

// BenchmarkRemine demonstrates §3.2's claim that changing thresholds is
// nearly instantaneous: once the BinArray is built, a full re-mine at
// new thresholds touches no source data. MineAt is one probe, at 50 bins
// over 20k tuples and at 200 bins over 200k, where the rule grid's cost
// shows; SegmentAll-cold is a whole threshold search per group on a
// 200×200 grid over 200k tuples with the probe cache emptied first, the
// op of perfbench's remine-hires workload.
func BenchmarkRemine(b *testing.B) {
	mineAt := func(n, bins int) func(*testing.B) {
		return func(b *testing.B) {
			sys := benchSystem(b, n, core.Config{NumBins: bins})
			minSup := 2 / float64(n) // a two-tuple support bar
			// The first probe builds the criterion value's index, once
			// per System.
			if _, err := sys.MineAt(minSup, 0.3); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				minConf := 0.3 + float64(i%5)*0.1
				if _, err := sys.MineAt(minSup, minConf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("MineAt/bins=50", mineAt(20_000, 50))
	b.Run("MineAt/bins=200", mineAt(200_000, 200))
	b.Run("SegmentAll-cold/bins=200", func(b *testing.B) {
		sys := benchSystem(b, 200_000, core.Config{NumBins: 200})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ResetProbeCache()
			if _, err := sys.SegmentAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBinningPass measures the streaming binning throughput — the
// O(N) component that dominates Figure 15.
func BenchmarkBinningPass(b *testing.B) {
	st, err := synth.NewStream(synth.Config{Function: 2, N: 100_000, Seed: 1, FracA: 0.4})
	if err != nil {
		b.Fatal(err)
	}
	gen := st.Source()
	cfg := core.Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: 50,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(gen, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// BenchmarkWhyClustering regenerates the §1 motivation numbers: raw cell
// rules vs quantitative interval rules vs clustered rules on identical
// data.
func BenchmarkWhyClustering(b *testing.B) {
	var res experiments.WhyClusteringResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.WhyClustering(20_000, 50)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CellRules), "cell_rules")
	b.ReportMetric(float64(res.QuantRules), "quant_rules")
	b.ReportMetric(float64(res.ClusteredRules), "clustered_rules")
}
