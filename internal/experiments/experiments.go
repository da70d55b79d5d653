// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the §4.2 clustered-rule recovery, the error-rate and
// rule-count comparisons against C4.5 (Figures 11-14), the comparative
// execution times (Table 2), the ARCS scale-up curve (Figure 15), the
// bin-granularity sensitivity study, and the Figure 7 smoothing
// illustration. It is shared by the arcsbench command and the top-level
// Go benchmarks.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"arcs/internal/c45"
	"arcs/internal/core"
	"arcs/internal/dataset"
	"arcs/internal/filter"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
	"arcs/internal/verify"
)

// DefaultSeed keeps every experiment deterministic.
const DefaultSeed = 1997

// dataConfig mirrors paper Table 1.
func dataConfig(n int, outlierFrac float64, seed int64) synth.Config {
	return synth.Config{
		Function:        2,
		N:               n,
		Seed:            seed,
		Perturbation:    0.05,
		OutlierFraction: outlierFrac,
		FracA:           0.4,
	}
}

// synthSource returns the synthetic stream for cfg as a dataset source.
func synthSource(cfg synth.Config) (*dataset.FuncSource, error) {
	st, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return st.Source(), nil
}

// arcsConfig is the standard ARCS configuration used across experiments:
// the paper's presets (50 bins, binary smoothing, 1% pruning) plus a
// bounded threshold walk.
func arcsConfig(bins int, seed int64) core.Config {
	return core.Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: bins,
		Walk:    optimizer.ThresholdWalk{MaxSupportLevels: 12, MaxConfLevels: 8, MaxEvals: 100},
		Seed:    seed,
	}
}

// RunARCS trains ARCS on n Function-2 tuples and measures its
// segmentation against an independent test table. It returns the
// result, the test error rate and the wall-clock training time.
func RunARCS(n int, outlierFrac float64, bins int, test *dataset.Table) (*core.Result, float64, time.Duration, error) {
	gen, err := synthSource(dataConfig(n, outlierFrac, DefaultSeed))
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	sys, err := core.New(gen, arcsConfig(bins, DefaultSeed))
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := sys.Run()
	if err != nil {
		return nil, 0, 0, err
	}
	elapsed := time.Since(start)

	schema := test.Schema()
	xIdx := schema.MustIndex(synth.AttrAge)
	yIdx := schema.MustIndex(synth.AttrSalary)
	critIdx := schema.MustIndex(synth.AttrGroup)
	segCode, _ := schema.At(critIdx).LookupCategory(synth.GroupA)
	errCounts, _, _, err := verify.SegmentStats(res.Rules, test, xIdx, yIdx, critIdx, segCode)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, errCounts.Rate(), elapsed, nil
}

// C45Outcome is the baseline measurement for one database size.
type C45Outcome struct {
	TreeTime  time.Duration // C4.5 induction
	RulesTime time.Duration // C4.5RULES extraction (on top of the tree)
	ErrorRate float64       // rule-set error on the test table
	NumRules  int
}

// RunC45 trains the C4.5 baseline on n Function-2 tuples, extracts rules
// and measures their error on the test table.
func RunC45(n int, outlierFrac float64, test *dataset.Table) (C45Outcome, error) {
	gen, err := synthSource(dataConfig(n, outlierFrac, DefaultSeed))
	if err != nil {
		return C45Outcome{}, err
	}
	train, err := dataset.Materialize(gen)
	if err != nil {
		return C45Outcome{}, err
	}
	start := time.Now()
	tree, err := c45.Train(train, synth.AttrGroup, c45.Config{})
	if err != nil {
		return C45Outcome{}, err
	}
	treeTime := time.Since(start)
	start = time.Now()
	rs := tree.ExtractRules(train)
	rulesTime := time.Since(start)
	return C45Outcome{
		TreeTime:  treeTime,
		RulesTime: rulesTime,
		ErrorRate: rs.ErrorRate(test),
		NumRules:  len(rs.Rules),
	}, nil
}

// TestTable generates an independent evaluation table (different seed
// from every training set).
func TestTable(n int, outlierFrac float64) (*dataset.Table, error) {
	gen, err := synthSource(dataConfig(n, outlierFrac, DefaultSeed+7919))
	if err != nil {
		return nil, err
	}
	return dataset.Materialize(gen)
}

// ComparisonRow is one point of Figures 11-14 and Table 2.
type ComparisonRow struct {
	N            int
	ARCSErrorPct float64
	ARCSRules    int
	ARCSTime     time.Duration
	C45Run       bool // false when the size exceeds the C4.5 cap
	C45ErrorPct  float64
	C45Rules     int
	C45TreeTime  time.Duration
	C45TotalTime time.Duration // tree + rule extraction
}

// Comparison runs ARCS and C4.5 across database sizes, capping C4.5 at
// c45Cap tuples — the stand-in for the paper's virtual-memory depletion
// that prevented C4.5 results beyond 100k tuples. testN is the size of
// the held-out test table.
func Comparison(sizes []int, outlierFrac float64, c45Cap, testN int) ([]ComparisonRow, error) {
	test, err := TestTable(testN, outlierFrac)
	if err != nil {
		return nil, err
	}
	var rows []ComparisonRow
	for _, n := range sizes {
		res, errRate, arcsTime, err := RunARCS(n, outlierFrac, 50, test)
		if err != nil {
			return nil, fmt.Errorf("ARCS at %d tuples: %w", n, err)
		}
		row := ComparisonRow{
			N:            n,
			ARCSErrorPct: 100 * errRate,
			ARCSRules:    len(res.Rules),
			ARCSTime:     arcsTime,
		}
		if c45Cap <= 0 || n <= c45Cap {
			out, err := RunC45(n, outlierFrac, test)
			if err != nil {
				return nil, fmt.Errorf("C4.5 at %d tuples: %w", n, err)
			}
			row.C45Run = true
			row.C45ErrorPct = 100 * out.ErrorRate
			row.C45Rules = out.NumRules
			row.C45TreeTime = out.TreeTime
			row.C45TotalTime = out.TreeTime + out.RulesTime
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScaleupRow is one point of Figure 15.
type ScaleupRow struct {
	N       int
	Elapsed time.Duration
	// TuplesPerSec is the streaming throughput of the full run.
	TuplesPerSec float64
}

// Scaleup measures end-to-end ARCS execution time (binning pass through
// optimized segmentation) across database sizes, streaming straight from
// the generator so memory stays constant as in the paper.
func Scaleup(sizes []int) ([]ScaleupRow, error) {
	var rows []ScaleupRow
	for _, n := range sizes {
		gen, err := synthSource(dataConfig(n, 0, DefaultSeed))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sys, err := core.New(gen, arcsConfig(50, DefaultSeed))
		if err != nil {
			return nil, err
		}
		if _, err := sys.Run(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		rows = append(rows, ScaleupRow{
			N:            n,
			Elapsed:      elapsed,
			TuplesPerSec: float64(n) / elapsed.Seconds(),
		})
	}
	return rows, nil
}

// BinRow is one point of the §4.2 bin-granularity study.
type BinRow struct {
	Bins         int
	ErrorPct     float64
	NumRules     int
	GeomErrorPct float64 // exact geometric FP+FN area vs the generating function
}

// BinGranularity measures segmentation quality as the number of bins per
// attribute grows (the paper tests 10 to 50 and observes a trend toward
// more optimal clusters with more bins).
func BinGranularity(n int, binCounts []int, testN int) ([]BinRow, error) {
	test, err := TestTable(testN, 0)
	if err != nil {
		return nil, err
	}
	tr, err := synth.GroundTruth(2)
	if err != nil {
		return nil, err
	}
	var rows []BinRow
	for _, bins := range binCounts {
		res, errRate, _, err := RunARCS(n, 0, bins, test)
		if err != nil {
			return nil, err
		}
		fp, fn, err := verify.RegionErrors(res.Rules, tr.Regions, tr.XLo, tr.XHi, tr.YLo, tr.YHi, 200)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BinRow{
			Bins:         bins,
			ErrorPct:     100 * errRate,
			NumRules:     len(res.Rules),
			GeomErrorPct: 100 * (fp + fn),
		})
	}
	return rows, nil
}

// RecoveredRules reruns the paper's §4.2 headline experiment: 50k tuples
// with 10% outliers, and returns the clustered rules ARCS settles on —
// expected to closely match the three Function 2 disjuncts.
func RecoveredRules() (*core.Result, error) {
	gen, err := synthSource(dataConfig(50_000, 0.10, DefaultSeed))
	if err != nil {
		return nil, err
	}
	sys, err := core.New(gen, arcsConfig(50, DefaultSeed))
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// SmoothingDemo reproduces Figure 7: the rule grid for Function 2 data
// with outliers before and after the low-pass filter, rendered as ASCII.
func SmoothingDemo(n, bins int) (before, after string, err error) {
	gen, err := synthSource(dataConfig(n, 0.10, DefaultSeed))
	if err != nil {
		return "", "", err
	}
	cfg := arcsConfig(bins, DefaultSeed)
	cfg.Smoothing = core.SmoothOff
	sys, err := core.New(gen, cfg)
	if err != nil {
		return "", "", err
	}
	raw, err := sys.Grid(synth.GroupA, 0.0001, 0.39)
	if err != nil {
		return "", "", err
	}
	smoothed, err := filter.LowPass(raw, 0.5)
	if err != nil {
		return "", "", err
	}
	return raw.String(), smoothed.String(), nil
}

// FormatDuration renders a duration with two significant decimals in
// seconds, matching the paper's tables.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// LinearityCheck summarizes a scale-up series: the ratio of
// time-per-tuple between the largest and smallest runs. Values <= 1 mean
// the system scales linearly or better, the paper's Figure 15 claim.
func LinearityCheck(rows []ScaleupRow) float64 {
	if len(rows) < 2 {
		return math.NaN()
	}
	first := rows[0].Elapsed.Seconds() / float64(rows[0].N)
	last := rows[len(rows)-1].Elapsed.Seconds() / float64(rows[len(rows)-1].N)
	return last / first
}

// RenderComparison formats comparison rows as an aligned text table.
func RenderComparison(rows []ComparisonRow, withTimes bool) string {
	var b strings.Builder
	if withTimes {
		fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n", "tuples", "ARCS", "C4.5", "C4.5+RULES", "")
		for _, r := range rows {
			c45t, c45tot := "—", "—"
			if r.C45Run {
				c45t = FormatDuration(r.C45TreeTime)
				c45tot = FormatDuration(r.C45TotalTime)
			}
			fmt.Fprintf(&b, "%10d %12s %12s %12s\n", r.N, FormatDuration(r.ARCSTime), c45t, c45tot)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n", "tuples", "ARCS err%", "C4.5 err%", "ARCS rules", "C4.5 rules")
	for _, r := range rows {
		c45e, c45r := "—", "—"
		if r.C45Run {
			c45e = fmt.Sprintf("%.2f", r.C45ErrorPct)
			c45r = fmt.Sprintf("%d", r.C45Rules)
		}
		fmt.Fprintf(&b, "%10d %12.2f %12s %12d %12s\n", r.N, r.ARCSErrorPct, c45e, r.ARCSRules, c45r)
	}
	return b.String()
}
