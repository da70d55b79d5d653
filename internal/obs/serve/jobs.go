// Package serve is the HTTP observability and control surface of arcsd:
// an async mining-job API wired into the core pipeline's cancellation
// plumbing, live Prometheus scrape of the shared metrics registry, span
// streaming over NDJSON/SSE through the obs.Fanout sink, flight-recorder
// dumps for post-hoc triage, and the standard pprof/expvar debug
// endpoints. It deliberately contains no mining logic — it is the
// serving skeleton later control-plane features (model registry,
// streaming ingest) mount onto.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/quality"
	"arcs/internal/report"
	"arcs/internal/synth"
)

// Run states, in lifecycle order. Degraded and canceled are terminal
// variants of a canceled run: degraded carries a usable best-so-far
// result, canceled carries none.
const (
	StatePending  = "pending"
	StateRunning  = "running"
	StateDone     = "done"
	StateDegraded = "degraded"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// JobSpec is the body of POST /runs: one data source (csv or synth) plus
// the mining parameters. Zero-valued mining fields take the same
// defaults as the arcs CLI.
type JobSpec struct {
	// CSV and Synth select the tuple source; exactly one must be set.
	CSV   *CSVSpec   `json:"csv,omitempty"`
	Synth *SynthSpec `json:"synth,omitempty"`

	// X, Y are the LHS attributes; Crit is the categorical criterion.
	X    string `json:"x"`
	Y    string `json:"y"`
	Crit string `json:"crit"`
	// Value is the criterion value to segment; empty segments every
	// value (SegmentAll).
	Value string `json:"value,omitempty"`

	Bins      int     `json:"bins,omitempty"`
	Search    string  `json:"search,omitempty"`    // a core.ParseSearchStrategy name
	Smoothing string  `json:"smoothing,omitempty"` // a core.ParseSmoothingMode name
	MinSup    float64 `json:"min_support,omitempty"`
	MinConf   float64 `json:"min_confidence,omitempty"`
	Lift      float64 `json:"lift,omitempty"`
	Seed      int64   `json:"seed,omitempty"`

	// IngestWorkers shards the counting pass over synth sources and
	// materialized CSV; a streamed CSV is read sequentially.
	IngestWorkers int `json:"ingest_workers,omitempty"`
	// MemBudget is the count-substrate memory budget for this run:
	// bytes with an optional K/M/G/T suffix, or "off" for unlimited.
	// Empty inherits the daemon default (-mem-budget flag).
	MemBudget string `json:"mem_budget,omitempty"`
	// CountsBackend pins a count backend for this run: auto, dense or
	// sparse. Empty inherits the daemon default
	// (-counts-backend flag). The selected backend and its footprint
	// come back in each result's "counts" block.
	CountsBackend string `json:"counts_backend,omitempty"`
	// TimeoutSec bounds the run; on expiry it degrades to the
	// best-so-far result exactly like the CLI's -timeout.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// CSVSpec points a run at a CSV file on the server's filesystem.
type CSVSpec struct {
	Path string `json:"path"`
	// Stream reads the file in constant memory instead of materializing.
	Stream bool `json:"stream,omitempty"`
	// MaxBadRows is the quarantine budget (-1 unlimited, 0 strict).
	MaxBadRows int `json:"max_bad_rows,omitempty"`
}

// SynthSpec generates the Agrawal et al. synthetic workload in-process —
// the same generator the experiment harness uses — so the daemon can be
// smoke-tested and load-tested with no data files.
type SynthSpec struct {
	Function     int     `json:"function"`
	N            int     `json:"n"`
	Seed         int64   `json:"seed,omitempty"`
	Perturbation float64 `json:"perturbation,omitempty"`
	Outliers     float64 `json:"outliers,omitempty"`
	FracA        float64 `json:"frac_a,omitempty"`
}

// validate checks the parts of the spec the server can reject before
// spawning a run.
func (j *JobSpec) validate(csvRoot string) error {
	switch {
	case j.CSV == nil && j.Synth == nil:
		return errors.New("spec needs a data source: set csv or synth")
	case j.CSV != nil && j.Synth != nil:
		return errors.New("spec sets both csv and synth; pick one")
	}
	if j.X == "" || j.Y == "" || j.Crit == "" {
		return errors.New("x, y and crit attributes are required")
	}
	if j.CSV != nil {
		if j.CSV.Path == "" {
			return errors.New("csv.path is required")
		}
		if csvRoot != "" {
			abs, err := filepath.Abs(j.CSV.Path)
			if err != nil {
				return fmt.Errorf("csv.path: %w", err)
			}
			root, err := filepath.Abs(csvRoot)
			if err != nil {
				return fmt.Errorf("csv root: %w", err)
			}
			if abs != root && !strings.HasPrefix(abs, root+string(filepath.Separator)) {
				return fmt.Errorf("csv.path %q is outside the served data root", j.CSV.Path)
			}
		}
	}
	if j.Synth != nil {
		if j.Synth.Function < 1 || j.Synth.Function > 10 {
			return fmt.Errorf("synth.function must be 1..10, got %d", j.Synth.Function)
		}
		if j.Synth.N <= 0 {
			return errors.New("synth.n must be positive")
		}
	}
	if _, err := core.ParseSearchStrategy(j.Search); err != nil {
		return err
	}
	if _, err := core.ParseSmoothingMode(j.Smoothing); err != nil {
		return err
	}
	if _, err := counts.ParseBudget(j.MemBudget); err != nil {
		return fmt.Errorf("mem_budget: %w", err)
	}
	if _, err := counts.ParseKind(j.CountsBackend); err != nil {
		return fmt.Errorf("counts_backend: %w", err)
	}
	if j.TimeoutSec < 0 {
		return errors.New("timeout_sec must be non-negative")
	}
	return nil
}

// countsDefaults are the daemon-wide count-substrate settings applied
// to specs that do not choose their own.
type countsDefaults struct {
	memBudget int64
	backend   string
}

// coreConfig maps the spec onto a core.Config for the given run ID and
// observer; def fills the count-substrate knobs the spec leaves unset.
func (j *JobSpec) coreConfig(runID string, observer *obs.Observer, def countsDefaults) core.Config {
	// validate already vetted the fields parsed here; parse errors cannot
	// reach it.
	search, _ := core.ParseSearchStrategy(j.Search)
	smoothing, _ := core.ParseSmoothingMode(j.Smoothing)
	memBudget := def.memBudget
	if b, err := counts.ParseBudget(j.MemBudget); err == nil && b != 0 {
		memBudget = b
	}
	backend := j.CountsBackend
	if backend == "" {
		backend = def.backend
	}
	return core.Config{
		XAttr: j.X, YAttr: j.Y,
		CritAttr: j.Crit, CritValue: j.Value,
		NumBins:            j.Bins,
		FixedMinSupport:    j.MinSup,
		FixedMinConfidence: j.MinConf,
		InterestLift:       j.Lift,
		Seed:               j.Seed,
		IngestWorkers:      j.IngestWorkers,
		MemBudget:          memBudget,
		CountsBackend:      backend,
		Smoothing:          smoothing,
		Search:             search,
		Walk:               optimizer.ThresholdWalk{},
		RunID:              runID,
		Observer:           observer,
	}
}

// Run is one submitted mining job: its spec, lifecycle state, the
// cancellation handle, and the fan-out sink its observer writes through
// (flight recorder + optional tee + live span subscribers).
type Run struct {
	ID string

	fanout *obs.Fanout
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	spec      JobSpec
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	results   map[string]*core.Result
	quality   map[string]*quality.Report
	quar      dataset.ResilientStats
}

// Status is the JSON shape of GET /runs/{id}.
type Status struct {
	ID          string         `json:"id"`
	State       string         `json:"state"`
	Spec        JobSpec        `json:"spec"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Error       string         `json:"error,omitempty"`
	Results     map[string]any `json:"results,omitempty"`
	// Quality carries per-criterion-value mining-quality reports for
	// synth-spec runs: held-out classification error, per-rule
	// interestingness measures, and (when the function's generating
	// disjuncts are rectangular in the mined pair) rectangle recovery.
	Quality map[string]*quality.Report `json:"quality,omitempty"`
	// StreamDropped counts span-stream events lost to slow consumers of
	// this run (sum over all subscribers so far).
	StreamDropped int64 `json:"stream_dropped,omitempty"`
	// RowsQuarantined surfaces input degradation for CSV sources.
	RowsQuarantined int64 `json:"rows_quarantined,omitempty"`
}

// Status snapshots the run for the API.
func (r *Run) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:            r.ID,
		State:         r.state,
		Spec:          r.spec,
		SubmittedAt:   r.submitted,
		Error:         r.errMsg,
		StreamDropped: r.fanout.Dropped(),
	}
	if !r.started.IsZero() {
		t := r.started
		st.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.FinishedAt = &t
	}
	if len(r.results) > 0 {
		st.Results = make(map[string]any, len(r.results))
		for label, res := range r.results {
			st.Results[label] = report.JSONResult(res)
		}
	}
	if len(r.quality) > 0 {
		st.Quality = make(map[string]*quality.Report, len(r.quality))
		for label, rep := range r.quality {
			st.Quality[label] = rep
		}
	}
	st.RowsQuarantined = int64(r.quar.Total())
	return st
}

// State returns the run's current lifecycle state.
func (r *Run) State() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// terminal reports whether the run has finished (any terminal state).
func (r *Run) terminal() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Cancel requests cooperative cancellation. The run transitions to
// canceled or degraded once the pipeline reaches its next checkpoint.
func (r *Run) Cancel() { r.cancel() }

// Done is closed when the run reaches a terminal state and its span
// stream has ended.
func (r *Run) Done() <-chan struct{} { return r.done }

// buildSource constructs the run's tuple source. The returned cleanup
// (possibly nil) runs after the mining completes. A CSV source counts
// its quarantined rows on observer's registry and records the
// dataset.infer and, when loaded into memory, dataset.load spans.
func (r *Run) buildSource(spec JobSpec, observer *obs.Observer) (dataset.Source, func(), error) {
	if spec.Synth != nil {
		scfg := synth.Config{
			Function:        spec.Synth.Function,
			N:               spec.Synth.N,
			Seed:            spec.Synth.Seed,
			Perturbation:    spec.Synth.Perturbation,
			OutlierFraction: spec.Synth.Outliers,
			FracA:           spec.Synth.FracA,
		}
		st, err := synth.NewStream(scfg)
		if err != nil {
			return nil, nil, err
		}
		return st.Source(), nil, nil
	}

	in, err := dataset.OpenCSV(spec.CSV.Path, spec.CSV.MaxBadRows, observer, r.ID)
	if err != nil {
		return nil, nil, err
	}
	record := func() {
		r.mu.Lock()
		r.quar = in.Stats()
		r.mu.Unlock()
	}
	if spec.CSV.Stream {
		return in, func() { record(); in.Close() }, nil
	}
	tb, err := in.Load()
	record()
	if err != nil {
		return nil, nil, err
	}
	return tb, nil, nil
}

// execute drives the run to a terminal state. It runs on its own
// goroutine under a pprof label carrying the run ID, so CPU profiles
// scraped from /debug/pprof attribute samples to runs
// (`go tool pprof -tagfocus arcs_run=<id>`).
func (s *Server) execute(ctx context.Context, r *Run, observer *obs.Observer) {
	defer close(r.done)
	defer r.fanout.Close()
	spec := func() JobSpec {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.state = StateRunning
		r.started = time.Now()
		return r.spec
	}()
	s.harvester.Sample()
	s.mRunsStarted.Inc()

	var results map[string]*core.Result
	var runErr error
	pprof.Do(ctx, pprof.Labels("arcs_run", r.ID), func(ctx context.Context) {
		src, cleanup, err := r.buildSource(spec, observer)
		if err != nil {
			runErr = err
			return
		}
		if cleanup != nil {
			defer cleanup()
		}
		sys, err := core.NewContext(ctx, src, spec.coreConfig(r.ID, observer,
			countsDefaults{memBudget: s.defMemBudget, backend: s.defBackend}))
		if err != nil {
			runErr = err
			return
		}
		if spec.Value != "" {
			res, err := sys.RunContext(ctx)
			if res != nil {
				results = map[string]*core.Result{spec.Value: res}
			}
			runErr = err
			return
		}
		results, runErr = sys.SegmentAllContext(ctx)
	})

	// Synth runs know their own ground truth — re-running the generator
	// on a shifted seed yields a held-out test table — so mining quality
	// is measured and published before the metrics flush, landing the
	// quality gauges in the trace and on /metrics alongside perf.
	var qual map[string]*quality.Report
	if spec.Synth != nil && len(results) > 0 && s.qualityN > 0 {
		qual = s.evaluateQuality(r.ID, spec, results, observer.Registry())
	}

	// The final registry state and runtime gauges belong in the trace
	// (and flight record) before the stream closes.
	observer.FlushMetrics()
	s.harvester.Sample()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = time.Now()
	r.results = results
	r.quality = qual
	switch re := core.AsRunError(runErr); {
	case runErr == nil:
		r.state = StateDone
	case re != nil && re.Partial && len(results) > 0:
		r.state = StateDegraded
		r.errMsg = runErr.Error()
		s.mRunsDegraded.Inc()
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		r.state = StateCanceled
		r.errMsg = runErr.Error()
		s.mRunsCanceled.Inc()
	default:
		r.state = StateFailed
		r.errMsg = runErr.Error()
		s.mRunsFailed.Inc()
	}
	slog.Info("run finished", "run", r.ID, "state", r.state,
		"elapsed", r.finished.Sub(r.started).Round(time.Millisecond))
}

// evaluateQuality measures each mined result of a synth run against a
// held-out test table (the generator re-run on a shifted seed) and
// publishes the headline numbers into the shared registry. Generating
// disjuncts are attached only when the spec mines the function's
// recommended pair and that pair is fully quantitative — categorical
// regions live in unpermuted code space, which the server's default
// category reordering would misalign. Evaluation failures degrade to a
// missing quality block, never to a failed run.
func (s *Server) evaluateQuality(runID string, spec JobSpec, results map[string]*core.Result, reg *obs.Registry) map[string]*quality.Report {
	testGen, err := synth.NewStream(synth.Config{
		Function:        spec.Synth.Function,
		N:               s.qualityN,
		Seed:            spec.Synth.Seed + 7919,
		Perturbation:    spec.Synth.Perturbation,
		OutlierFraction: spec.Synth.Outliers,
		FracA:           spec.Synth.FracA,
	})
	if err != nil {
		slog.Warn("quality: building test generator", "run", runID, "err", err)
		return nil
	}
	test, err := dataset.Materialize(testGen.Source())
	if err != nil {
		slog.Warn("quality: materializing test table", "run", runID, "err", err)
		return nil
	}

	out := make(map[string]*quality.Report, len(results))
	for label, res := range results {
		opts := quality.Options{
			XAttr: spec.X, YAttr: spec.Y,
			CritAttr: spec.Crit, CritValue: label,
		}
		if tr, terr := synth.GroundTruth(spec.Synth.Function); terr == nil &&
			tr.HasRegions() && !tr.CategoricalY &&
			tr.XAttr == spec.X && tr.YAttr == spec.Y &&
			spec.Crit == synth.AttrGroup && label == synth.GroupA {
			opts.Truth = tr.Regions
			opts.XLo, opts.XHi = tr.XLo, tr.XHi
			opts.YLo, opts.YHi = tr.YLo, tr.YHi
		}
		rep, err := quality.Evaluate(res, test, opts)
		if err != nil {
			slog.Warn("quality: evaluating result", "run", runID, "value", label, "err", err)
			continue
		}
		rep.Observe(reg)
		out[label] = rep
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
