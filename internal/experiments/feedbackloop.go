package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"arcs/internal/core"
	"arcs/internal/obs"
)

// FeedbackLoopVariant is one measured configuration of the
// threshold-search loop.
type FeedbackLoopVariant struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	Probes     int     `json:"probes"`
	ProbesPerS float64 `json:"probes_per_sec"`
	CacheHit   float64 `json:"cache_hit_pct"`
	// SpeedupVsSequential is wall-clock relative to the sequential
	// baseline (>1 means faster).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// Phases breaks the run into its top-level stage durations
	// (search / mine-final / verify-final).
	Phases []core.PhaseTiming `json:"phases"`
}

// FeedbackLoopReport is the JSON document emitted by the feedbackloop
// experiment (BENCH_feedbackloop.json).
type FeedbackLoopReport struct {
	Experiment string                `json:"experiment"`
	Tuples     int                   `json:"tuples"`
	Workers    int                   `json:"workers"`
	Identical  bool                  `json:"results_identical"`
	Variants   []FeedbackLoopVariant `json:"variants"`
	// Metrics is the observability snapshot of the batched system after
	// both its runs: probe-cache counters, verify fast-path/fallback
	// counters, batch-size and per-phase duration histograms.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// FeedbackLoop measures the threshold-search feedback loop on the
// Figure 11 workload (Function 2, U=10%) in three configurations: the
// "sequential" baseline, a cold search on a System without an observer;
// the "batched-cold" search on a second, observed System; and the same
// search again, warm. At 50 bins the grid is under the probe pool's
// floor, so every batch of all three runs inline; the baseline's name is
// kept so the report's history stays comparable. It also checks that
// the observed search's thresholds, cost and trace length are identical
// to the baseline's.
//
// The observed system's metric snapshot lands in the report and, when
// sink is non-nil (e.g. a JSONL trace sink), every phase and probe span
// is emitted to it. The baseline stays observer-free so its timing is
// the true uninstrumented cost.
func FeedbackLoop(n, workers int, sink obs.Sink) (*FeedbackLoopReport, error) {
	build := func(observer *obs.Observer) (*core.System, error) {
		gen, err := synthSource(dataConfig(n, 0.10, DefaultSeed))
		if err != nil {
			return nil, err
		}
		cfg := arcsConfig(50, DefaultSeed)
		cfg.Observer = observer
		return core.New(gen, cfg)
	}
	timeRun := func(sys *core.System) (*core.Result, FeedbackLoopVariant, error) {
		start := time.Now()
		res, err := sys.Run()
		if err != nil {
			return nil, FeedbackLoopVariant{}, err
		}
		secs := time.Since(start).Seconds()
		return res, FeedbackLoopVariant{
			Seconds:    secs,
			Probes:     res.Evaluations,
			ProbesPerS: float64(res.Evaluations) / secs,
			CacheHit:   100 * res.Cache.HitRate(),
			Phases:     res.Phases,
		}, nil
	}

	seqSys, err := build(nil)
	if err != nil {
		return nil, err
	}
	seqRes, seq, err := timeRun(seqSys)
	if err != nil {
		return nil, err
	}
	seq.Name = "sequential"

	observer := obs.New(sink)
	parSys, err := build(observer)
	if err != nil {
		return nil, err
	}
	parRes, cold, err := timeRun(parSys)
	if err != nil {
		return nil, err
	}
	cold.Name = "batched-cold"

	_, warm, err := timeRun(parSys)
	if err != nil {
		return nil, err
	}
	warm.Name = "batched-warm"

	// Flush the registry into the trace before snapshotting, so a JSONL
	// sink carries the final counter/histogram state for arcstrace diff.
	observer.FlushMetrics()
	report := &FeedbackLoopReport{
		Experiment: "feedbackloop",
		Tuples:     n,
		Workers:    workers,
		Identical: seqRes.MinSupport == parRes.MinSupport &&
			seqRes.MinConfidence == parRes.MinConfidence &&
			seqRes.Cost == parRes.Cost &&
			len(seqRes.Trace) == len(parRes.Trace),
		Variants: []FeedbackLoopVariant{seq, cold, warm},
		Metrics:  observer.Registry().Snapshot(),
	}
	for i := range report.Variants {
		report.Variants[i].SpeedupVsSequential = seq.Seconds / report.Variants[i].Seconds
	}
	if !report.Identical {
		return report, fmt.Errorf("experiments: batched search diverged from sequential baseline")
	}
	return report, nil
}

// RenderFeedbackLoop formats the report as an aligned table.
func RenderFeedbackLoop(r *FeedbackLoopReport) string {
	out := fmt.Sprintf("%14s %10s %8s %12s %10s %9s\n",
		"variant", "time", "probes", "probes/sec", "cache-hit", "speedup")
	for _, v := range r.Variants {
		out += fmt.Sprintf("%14s %10s %8d %12.0f %9.1f%% %8.2fx\n",
			v.Name, FormatDuration(time.Duration(v.Seconds*float64(time.Second))),
			v.Probes, v.ProbesPerS, v.CacheHit, v.SpeedupVsSequential)
	}
	return out
}

// MarshalFeedbackLoop renders the report as indented JSON for
// BENCH_feedbackloop.json.
func MarshalFeedbackLoop(r *FeedbackLoopReport) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
