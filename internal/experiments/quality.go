package experiments

import (
	"fmt"
	"strings"
	"time"

	"arcs/internal/core"
	"arcs/internal/dataset"
	"arcs/internal/quality"
	"arcs/internal/synth"
)

// QualityRow is one function's entry in the quality trajectory: the
// headline numbers of a quality.Report, flat and JSON-stable so
// BENCH_quality.json records diff across commits.
type QualityRow struct {
	Function int    `json:"function"`
	XAttr    string `json:"x_attr"`
	YAttr    string `json:"y_attr"`
	Rules    int    `json:"rules"`
	// ErrorPct is the held-out classification error (FP+FN) in percent.
	ErrorPct float64 `json:"error_pct"`
	MDLCost  float64 `json:"mdl_cost"`
	// HasRecovery marks functions whose generating disjuncts are
	// rectangular in the mined plane; the Recovery* fields are only
	// meaningful when it is set.
	HasRecovery       bool    `json:"has_recovery,omitempty"`
	RecoveryIoU       float64 `json:"recovery_iou,omitempty"`
	RecoveryPrecision float64 `json:"recovery_precision,omitempty"`
	RecoveryRecall    float64 `json:"recovery_recall,omitempty"`
	// MeanLift is the average lift across the mined rules (0 when the
	// segmentation is empty).
	MeanLift float64 `json:"mean_lift,omitempty"`
	// Seconds is the wall-clock cost of generating the tables, mining
	// and evaluating the function.
	Seconds float64 `json:"seconds"`
}

// QualityReport is the outcome of one all-functions quality sweep.
type QualityReport struct {
	TrainN int `json:"train_n"`
	TestN  int `json:"test_n"`
	// Rows has one entry per classification function, 1..10 in order.
	Rows []QualityRow `json:"rows"`
	// Reports are the full per-function quality reports (per-rule
	// measures included), in Rows order. Not persisted in the bench
	// trajectory — rows carry the diffable summary.
	Reports []*quality.Report `json:"-"`
	// Phases are the sweep's timings, per function in Rows order:
	// quality-f<N>, the function's total, then its quality-f<N>-generate,
	// -mine and -evaluate stages.
	Phases []core.PhaseTiming `json:"-"`
}

// TruthOptions converts exported synth ground truth into quality
// evaluation options: the mined pair, the criterion, the recovery
// domain and (when the function is rectangular in the pair) the
// generating disjuncts.
func TruthOptions(tr synth.Truth) quality.Options {
	return quality.Options{
		XAttr: tr.XAttr, YAttr: tr.YAttr,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		XLo: tr.XLo, XHi: tr.XHi,
		YLo: tr.YLo, YHi: tr.YHi,
		Truth: tr.Regions,
	}
}

// qualityDataConfig is the per-function generator setup: the paper's
// standard noise regime (P=5%, U=10%, 40% Group A) on every function.
func qualityDataConfig(fn, n int, seed int64) synth.Config {
	return synth.Config{
		Function:        fn,
		N:               n,
		Seed:            seed,
		Perturbation:    0.05,
		OutlierFraction: 0.10,
		FracA:           0.4,
	}
}

// qualityTable materializes one function's synthetic table, paying the
// generator's rejection sampling once.
func qualityTable(fn, n int, seed int64) (*dataset.Table, error) {
	gen, err := synthSource(qualityDataConfig(fn, n, seed))
	if err != nil {
		return nil, err
	}
	return dataset.Materialize(gen)
}

// QualityEval mines one classification function with the standard ARCS
// configuration and evaluates the segmentation against a held-out test
// table. The training table is materialized once, so core.New's two
// passes over it do not generate it twice. Alongside the report it returns the
// wall-clock time of each stage as the phases quality-f<N>-generate
// (training and test tables), -mine and -evaluate.
func QualityEval(fn, trainN, testN int) (*quality.Report, []core.PhaseTiming, error) {
	tr, err := synth.GroundTruth(fn)
	if err != nil {
		return nil, nil, err
	}
	var phases []core.PhaseTiming
	start := time.Now()
	lap := func(stage string) {
		now := time.Now()
		phases = append(phases, core.PhaseTiming{
			Name: fmt.Sprintf("quality-f%d-%s", fn, stage), Seconds: now.Sub(start).Seconds(),
		})
		start = now
	}

	train, err := qualityTable(fn, trainN, DefaultSeed)
	if err != nil {
		return nil, nil, err
	}
	test, err := qualityTable(fn, testN, DefaultSeed+7919)
	if err != nil {
		return nil, nil, err
	}
	lap("generate")

	cfg := arcsConfig(50, DefaultSeed)
	cfg.XAttr, cfg.YAttr = tr.XAttr, tr.YAttr
	sys, err := core.New(train, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := sys.Run()
	if err != nil {
		return nil, nil, err
	}
	lap("mine")

	rep, err := quality.Evaluate(res, test, TruthOptions(tr))
	if err != nil {
		return nil, nil, err
	}
	lap("evaluate")
	return rep, phases, nil
}

// Quality sweeps all ten Agrawal classification functions, mining each
// with the standard configuration and measuring the segmentation's
// quality on an independent test table. It is the producer behind
// `arcsbench -exp quality` and the BENCH_quality.json trajectory.
func Quality(trainN, testN int) (*QualityReport, error) {
	report := &QualityReport{TrainN: trainN, TestN: testN}
	for fn := 1; fn <= 10; fn++ {
		tr, err := synth.GroundTruth(fn)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, stages, err := QualityEval(fn, trainN, testN)
		if err != nil {
			return nil, fmt.Errorf("quality on function %d: %w", fn, err)
		}
		row := QualityRow{
			Function: fn,
			XAttr:    tr.XAttr, YAttr: tr.YAttr,
			Rules:    rep.Rules,
			ErrorPct: rep.ErrorPct,
			MDLCost:  rep.MDLCost,
			Seconds:  time.Since(start).Seconds(),
		}
		if rep.Recovery != nil {
			row.HasRecovery = true
			row.RecoveryIoU = rep.Recovery.IoU
			row.RecoveryPrecision = rep.Recovery.Precision
			row.RecoveryRecall = rep.Recovery.Recall
		}
		if len(rep.RuleMeasures) > 0 {
			sum := 0.0
			for _, m := range rep.RuleMeasures {
				sum += m.Lift
			}
			row.MeanLift = sum / float64(len(rep.RuleMeasures))
		}
		report.Rows = append(report.Rows, row)
		report.Reports = append(report.Reports, rep)
		report.Phases = append(report.Phases, core.PhaseTiming{
			Name: fmt.Sprintf("quality-f%d", fn), Seconds: row.Seconds,
		})
		report.Phases = append(report.Phases, stages...)
	}
	return report, nil
}

// RenderQuality formats a quality sweep as an aligned text table.
func RenderQuality(r *QualityReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "train %d tuples, test %d tuples, P=5%% U=10%%\n", r.TrainN, r.TestN)
	fmt.Fprintf(&b, "%4s %18s %6s %10s %10s %10s %10s %8s\n",
		"fn", "pair", "rules", "err%", "IoU", "mdl cost", "mean lift", "time")
	for _, row := range r.Rows {
		iou := "—"
		if row.HasRecovery {
			iou = fmt.Sprintf("%.3f", row.RecoveryIoU)
		}
		fmt.Fprintf(&b, "%4d %18s %6d %10.2f %10s %10.1f %10.2f %7.2fs\n",
			row.Function, row.XAttr+"×"+row.YAttr, row.Rules,
			row.ErrorPct, iou, row.MDLCost, row.MeanLift, row.Seconds)
	}
	return b.String()
}

// QualityBenchRecord converts a quality sweep into the BENCH_*.json
// history schema: the per-function rows the diff gate compares, plus
// the sweep's phase timings (each function's total and its generate,
// mine and evaluate stages) so its wall-clock cost is trended alongside
// its quality and charged to the stage that incurred it.
func QualityBenchRecord(r *QualityReport, gitSHA string, now time.Time) BenchRecord {
	return BenchRecord{
		GitSHA:    gitSHA,
		Timestamp: now.UTC().Format(time.RFC3339),
		Tuples:    r.TrainN,
		Phases:    r.Phases,
		Quality:   r.Rows,
	}
}
