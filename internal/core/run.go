package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"arcs/internal/bitop"
	"arcs/internal/cancelcheck"
	"arcs/internal/engine"
	"arcs/internal/grid"
	"arcs/internal/mdl"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/rules"
	"arcs/internal/verify"
)

// bitopCluster adapts the BitOp call for the pipeline, keeping the
// presentation order stable. A nil st disables operation accounting.
func bitopCluster(bm *grid.Bitmap, minArea int, st *bitop.Stats) []grid.Rect {
	rects := bitop.Cluster(bm, bitop.Options{MinArea: minArea, Stats: st})
	bitop.SortRects(rects)
	return rects
}

// Result is the outcome of a full ARCS run for one criterion value.
type Result struct {
	// CritValue is the segmented group.
	CritValue string
	// Rules is the final segmentation.
	Rules []rules.ClusteredRule
	// MinSupport and MinConfidence are the thresholds the optimizer
	// settled on.
	MinSupport, MinConfidence float64
	// Cost is the MDL cost of the segmentation.
	Cost float64
	// Errors are the verification counts over the full sample.
	Errors verify.ErrorCounts
	// Evaluations is the number of threshold probes the search spent.
	Evaluations int
	// Trace records every probe, for reports and debugging.
	Trace []optimizer.Step
	// Provenance summarizes the search trace: how many probes the
	// strategy issued, how they were classified, and how many were
	// answered from the probe cache.
	Provenance Provenance
	// Phases are the wall-clock durations of the run's top-level stages
	// (search, mine-final, verify-final), in execution order. Always
	// populated — the three time stamps cost nothing — so reports and
	// benchmarks get per-phase timings even without an Observer.
	Phases []PhaseTiming
	// Degraded reports that the threshold search was cut short by
	// cancellation and this result carries the best thresholds found up
	// to that point (re-mined and verified to completion — the final mine
	// and verify run detached from the canceled context). The
	// accompanying error is a RunError with Partial set.
	Degraded bool
	// FailedProbes counts search probes skipped after an isolated failure
	// (recovered panic); see optimizer.Best.Failures.
	FailedProbes int
	// Counts identifies the count backend the run read from and its
	// memory/disk footprint.
	Counts CountsInfo
}

// PhaseTiming is the wall-clock duration of one pipeline stage of a run.
type PhaseTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Provenance is the per-run summary of the threshold search: every probe
// the strategy issued, classified by outcome. It condenses Result.Trace
// into the numbers reports and regressions care about.
type Provenance struct {
	// Probes is the number of trace steps (== Result.Evaluations for the
	// built-in strategies).
	Probes int `json:"probes"`
	// Accepted counts probes that displaced the incumbent best.
	Accepted int `json:"accepted"`
	// ZeroRules counts probes whose segmentation produced no rules.
	ZeroRules int `json:"zero_rules"`
	// NoImprovement counts probes that produced rules but lost to the
	// incumbent.
	NoImprovement int `json:"no_improvement"`
	// CacheHits counts probes answered from the memoized probe cache,
	// including probes that joined an in-flight computation: the trace
	// steps with CacheHit set. The other Probes − CacheHits ran the
	// mine/cluster/verify pipeline.
	CacheHits int `json:"cache_hits"`
}

// summarizeProvenance folds a search trace into its Provenance counts.
func summarizeProvenance(trace []optimizer.Step) Provenance {
	p := Provenance{Probes: len(trace)}
	for _, st := range trace {
		if st.Accepted {
			p.Accepted++
		}
		switch st.Reason {
		case optimizer.ReasonZeroRules:
			p.ZeroRules++
		case optimizer.ReasonNoImprovement:
			p.NoImprovement++
		}
		if st.CacheHit {
			p.CacheHits++
		}
	}
	return p
}

// timed runs fn as one top-level phase: it is appended to *phases,
// emitted as a span under parent (handed to fn so nested work can
// parent to it), and labeled for CPU profiles.
func (s *System) timed(parent obs.Span, phases *[]PhaseTiming, name string, fn func(obs.Span) error) error {
	sp := parent.Child(name)
	start := time.Now()
	var err error
	s.labeled(name, func() { err = fn(sp) })
	*phases = append(*phases, PhaseTiming{Name: name, Seconds: time.Since(start).Seconds()})
	sp.End()
	return err
}

// resetThresholdCache drops the per-criterion indexes, forcing a
// rebuild over the current BinArray counts (used after Extend).
func (s *System) resetThresholdCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.thresholds = make(map[int]*critIndex)
}

// ResetProbeCache drops every memoized probe evaluation. Extend calls it
// internally when the sample changes; benchmarks use it to measure
// cold-cache behavior. The observer's cache counters are cumulative and
// survive it.
func (s *System) ResetProbeCache() { s.probes.reset() }

// critIndex holds one criterion code's index, built once on first use.
type critIndex struct {
	once sync.Once
	th   *engine.Thresholds
	err  error
}

// thresholdsFor returns the per-criterion index of a criterion code,
// building it on first use. The cache is guarded so concurrent RunValue
// calls (SegmentAll) can share it; each index is built outside the
// guard, once, so no probe of one criterion value waits for another
// value's build.
func (s *System) thresholdsFor(seg int) (*engine.Thresholds, error) {
	s.mu.Lock()
	ix, ok := s.thresholds[seg]
	if !ok {
		ix = &critIndex{}
		s.thresholds[seg] = ix
	}
	s.mu.Unlock()
	ix.once.Do(func() {
		tsp := s.obs.Root("thresholds", s.rootAttrs(obs.Int("seg", seg))...)
		if ix.th, ix.err = engine.NewThresholds(s.ba, seg); ix.err != nil {
			tsp.End(obs.Str("error", ix.err.Error()))
			return
		}
		cells, bytes := ix.th.Footprint()
		tsp.End(obs.Int("supports", len(ix.th.Supports())),
			obs.Int("cells", cells), obs.Int("bytes", bytes))
	})
	return ix.th, ix.err
}

// segObjective drives one criterion code through the System. It also
// implements optimizer.ObjectiveBatch, fanning independent probes across
// a worker pool.
type segObjective struct {
	sys *System
	seg int
	// span is the enclosing search span (zero outside an observed
	// RunValue); probe batches and probes nest under it.
	span obs.Span
	// ck carries the run's cancellation scope: probes and batches are
	// refused once it is canceled. It is nil for uncancellable runs: its
	// nil methods keep the hot path branch-free beyond a single
	// predictable comparison.
	ck *cancelcheck.Checker
}

// SupportLevels implements optimizer.Objective.
func (o *segObjective) SupportLevels() ([]float64, error) {
	th, err := o.sys.thresholdsFor(o.seg)
	if err != nil {
		return nil, err
	}
	return th.Supports(), nil
}

// ConfidenceLevels implements optimizer.Objective.
func (o *segObjective) ConfidenceLevels(support float64) ([]float64, error) {
	th, err := o.sys.thresholdsFor(o.seg)
	if err != nil {
		return nil, err
	}
	return th.ConfidencesAtOrAbove(support), nil
}

// Evaluate implements optimizer.Objective: one probe, under the search
// span.
func (o *segObjective) Evaluate(p optimizer.Probe) optimizer.ProbeResult {
	return o.probe(o.span, p)
}

// probe answers one probe through the System's probe cache, so
// concurrent and repeated requests for the same (seg, support,
// confidence) run the pipeline exactly once. The probe span nests under
// parent (the batch path passes its batch span). Under a cancellable run
// the probe is refused once the context is canceled.
// With observability off this path performs zero allocations beyond the
// probe pipeline itself — the allocation test in obs_test.go enforces
// that for the warm-cache case.
func (o *segObjective) probe(parent obs.Span, p optimizer.Probe) optimizer.ProbeResult {
	if err := o.ck.Err(); err != nil {
		return optimizer.ProbeResult{Err: err}
	}
	return o.sys.probes.do(o.sys, parent, probeKey{seg: o.seg, sup: p.Support, conf: p.Confidence})
}

// safeEvaluateProbe is the probe isolation layer: it runs the configured
// ProbeHook (the chaos-test fault seam) and the probe pipeline with a
// recover, so a panic anywhere inside one probe fails only that probe. The
// recovered panic comes back as a *PanicError (stack attached, counted
// on probe_panics_recovered_total) which unwraps to
// optimizer.ErrProbeFailed so the search strategies skip the probe.
func (s *System) safeEvaluateProbe(parent obs.Span, seg int, minSup, minConf float64) (r optimizer.ProbeResult) {
	defer func() {
		if v := recover(); v != nil {
			s.mPanics.Inc()
			r = optimizer.ProbeResult{Err: &PanicError{Phase: "probe", Value: v, Stack: debug.Stack()}}
		}
	}()
	if s.cfg.ProbeHook != nil {
		s.cfg.ProbeHook(seg, minSup, minConf)
	}
	r.Cost, r.NumRules, r.Err = s.evaluateProbe(parent, seg, minSup, minConf)
	return r
}

// batchWorkers sizes the probe pool for one batch: GOMAXPROCS workers,
// and no more than the batch has probes.
func batchWorkers(probes int) int {
	return min(runtime.GOMAXPROCS(0), probes)
}

// EvaluateBatch implements optimizer.ObjectiveBatch: the probes are
// evaluated concurrently on up to GOMAXPROCS workers (inline, when that
// is one) and returned in probe order. Each probe goes through the same
// memoized probe as Evaluate, and every evaluation is a pure function of
// its thresholds, so the merged results are bit-identical to sequential
// evaluation. Once the run is canceled every later probe is refused
// without running the pipeline; the strategies stop at the first
// cancellation error in merge order.
func (o *segObjective) EvaluateBatch(probes []optimizer.Probe) []optimizer.ProbeResult {
	out := make([]optimizer.ProbeResult, len(probes))
	workers := batchWorkers(len(probes))
	sp := o.span.Child("probe-batch",
		obs.Int("probes", len(probes)), obs.Int("workers", workers))
	o.sys.mBatchSize.Observe(float64(len(probes)))
	o.sys.mPoolWork.Set(int64(workers))
	if workers <= 1 {
		for i, p := range probes {
			out[i] = o.probe(sp, p)
		}
		sp.End()
		return out
	}
	next := make(chan int, len(probes))
	for i := range probes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o.sys.mQueueDepth.Set(int64(len(next)))
				out[i] = o.probe(sp, probes[i])
			}
		}()
	}
	wg.Wait()
	o.sys.mQueueDepth.Set(0)
	sp.End()
	return out
}

// evaluateProbe mines and clusters at the thresholds, verifies against
// the repeated k-of-n draws of the pre-binned sample index, and returns
// the MDL cost. Every probe is scored on the same draws, made once with
// the index, which also makes the result a pure function of (seg,
// minSup, minConf), the property both the probe cache and the parallel
// batch path rely on. The probe emits a "probe" span with
// "mine"/"cluster"/"verify"/"mdl" children under parent; probes run only
// on cache misses, so the span cost sits beside a full mining pass.
func (s *System) evaluateProbe(parent obs.Span, seg int, minSup, minConf float64) (float64, int, error) {
	sp := parent.Child("probe",
		obs.Float("support", minSup), obs.Float("confidence", minConf))
	rs, err := s.mineAtSeg(sp, seg, minSup, minConf)
	if err != nil {
		sp.End()
		return 0, 0, err
	}
	if len(rs) == 0 {
		sp.End(obs.Int("rules", 0))
		return 0, 0, nil
	}
	vsp := sp.Child("verify",
		obs.Int("rules", len(rs)), obs.Int("rounds", sampleRounds))
	var meanErrors float64
	s.labeled("verify", func() { meanErrors, err = s.vindex.MeanErrors(rs, seg) })
	vsp.End()
	if err != nil {
		sp.End()
		return 0, 0, err
	}
	// Scale the error count of a draw up to the full sample so MDL costs
	// are comparable across sample sizes.
	n := s.sample.Len()
	scale := float64(n) / float64(min(sampleSize/2, n))
	msp := sp.Child("mdl")
	bd, err := mdl.CostBreakdown(len(rs), meanErrors*scale, s.cfg.Weights)
	cost := bd.Total
	if err == nil && s.obs.Enabled() {
		s.mMDLCluster.Observe(bd.ClusterTerm)
		s.mMDLError.Observe(bd.ErrorTerm)
	}
	msp.End(obs.Float("cluster_term", bd.ClusterTerm),
		obs.Float("error_term", bd.ErrorTerm))
	if err != nil {
		sp.End()
		return 0, 0, err
	}
	sp.End(obs.Int("rules", len(rs)), obs.Float("cost", cost))
	return cost, len(rs), nil
}

// Run executes the full threshold search for the configured criterion value.
func (s *System) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation; see RunValueContext
// for the degraded-result contract.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if s.cfg.CritValue == "" {
		return nil, fmt.Errorf("core: Config.CritValue is required for Run; use SegmentAll for every value")
	}
	return s.RunValueContext(ctx, s.cfg.CritValue)
}

// RunValue executes the full threshold search for an arbitrary criterion
// value, reusing the BinArray (no re-binning, §3.1). It is safe to call
// concurrently for different values.
func (s *System) RunValue(label string) (*Result, error) {
	return s.RunValueContext(context.Background(), label)
}

// RunValueContext is RunValue with cooperative cancellation and graceful
// degradation. When the context is canceled (or its deadline expires)
// mid-search, the run does not discard the work already done: if the
// search had an incumbent best, the final mine and verify execute
// DETACHED from the canceled context (they are bounded — one pipeline
// pass at known thresholds) and the call returns that best-so-far Result
// with Degraded set, alongside a *RunError{Phase: "search", Partial:
// true} wrapping the cancellation. Callers that only check err != nil
// stay correct — they just lose the partial result; callers that want it
// check RunError.Partial or Result != nil.
//
// Cancellation before any probe settles returns a nil Result and a
// non-partial RunError.
func (s *System) RunValueContext(ctx context.Context, label string) (*Result, error) {
	seg, err := s.segCode(label)
	if err != nil {
		return nil, err
	}
	root := s.obs.Root("run", s.rootAttrs(
		obs.Str("crit_value", label), obs.Int("seg", seg),
		obs.Str("strategy", s.cfg.Search.String()))...)
	var phases []PhaseTiming

	obj := &segObjective{sys: s, seg: seg, ck: cancelcheck.New(ctx)}
	var best optimizer.Best
	serr := s.timed(root, &phases, "search", func(sp obs.Span) error {
		obj.span = sp
		defer func() { obj.span = obs.Span{} }()
		switch s.cfg.Search {
		case SearchFixed:
			p := optimizer.Probe{Support: s.cfg.FixedMinSupport, Confidence: s.cfg.FixedMinConfidence}
			r := obj.Evaluate(p)
			if r.Err != nil {
				return r.Err
			}
			best = optimizer.Best{
				Support:     p.Support,
				Confidence:  p.Confidence,
				Cost:        r.Cost,
				NumRules:    r.NumRules,
				Evaluations: 1,
				Trace: []optimizer.Step{{
					Support: p.Support, Confidence: p.Confidence,
					Cost: r.Cost, NumRules: r.NumRules,
					Accepted: true, Reason: optimizer.ReasonFixed, CacheHit: r.CacheHit,
				}},
			}
			return nil
		case SearchWalk:
			best, err = s.cfg.Walk.Optimize(ctx, obj)
		case SearchAnneal:
			best, err = s.cfg.Anneal.Optimize(ctx, obj)
		default:
			return fmt.Errorf("core: unknown search strategy %v", s.cfg.Search)
		}
		if err != nil {
			if cancelcheck.IsCancel(err) {
				return err // classified by the caller; keep the chain bare
			}
			return fmt.Errorf("core: optimizing %q: %w", label, err)
		}
		return nil
	})
	degraded := false
	if serr != nil {
		// Cancellation with an incumbent best degrades to a partial
		// result; everything else — including cancellation before any
		// probe produced rules — fails the run.
		if !cancelcheck.IsCancel(serr) || best.NumRules == 0 || math.IsInf(best.Cost, 1) {
			root.End(obs.Str("error", serr.Error()))
			if cancelcheck.IsCancel(serr) {
				return nil, &RunError{Phase: "search", Err: serr}
			}
			return nil, serr
		}
		degraded = true
		s.mDegraded.Inc()
	}
	s.annotateSearchTrace(best.Trace)

	// The final mine and verify run detached from ctx even on the
	// degraded path: re-mining at the chosen thresholds is one bounded
	// pipeline pass, and a Degraded result must still be internally
	// consistent (rules, error counts and cost all from the same
	// thresholds).
	var finalRules []rules.ClusteredRule
	if err := s.timed(root, &phases, "mine-final", func(sp obs.Span) error {
		var err error
		finalRules, err = s.mineAtSeg(sp, seg, best.Support, best.Confidence)
		return err
	}); err != nil {
		root.End()
		return nil, &RunError{Phase: "mine-final", Err: err}
	}
	var errs verify.ErrorCounts
	if err := s.timed(root, &phases, "verify-final", func(obs.Span) error {
		var err error
		errs, err = s.vindex.Measure(finalRules, seg)
		return err
	}); err != nil {
		root.End()
		return nil, &RunError{Phase: "verify-final", Err: err}
	}
	root.End(obs.Int("rules", len(finalRules)), obs.Int("evaluations", best.Evaluations))
	prov := summarizeProvenance(best.Trace)
	res := &Result{
		CritValue:     label,
		Rules:         finalRules,
		MinSupport:    best.Support,
		MinConfidence: best.Confidence,
		Cost:          best.Cost,
		Errors:        errs,
		Evaluations:   best.Evaluations,
		Trace:         best.Trace,
		Provenance:    prov,
		Phases:        phases,
		Degraded:      degraded,
		FailedProbes:  best.Failures,
		Counts:        s.countsInfo,
	}
	if degraded {
		return res, &RunError{Phase: "search", Err: serr, Partial: true}
	}
	return res, nil
}

// annotateSearchTrace replays the finished search trace into the span
// stream as structured "search.probe" events — one per probe, carrying
// the thresholds tried, the MDL cost, the accept/reject classification
// and whether the probe cache answered it. Emitted after the search so
// the hot probe path stays allocation-free; a disabled observer skips
// the whole replay.
func (s *System) annotateSearchTrace(trace []optimizer.Step) {
	if !s.obs.Enabled() {
		return
	}
	for i, st := range trace {
		accepted := "false"
		if st.Accepted {
			accepted = "true"
		}
		hit := "false"
		if st.CacheHit {
			hit = "true"
		}
		s.obs.Annotate("search.probe",
			obs.Int("step", i),
			obs.Float("support", st.Support),
			obs.Float("confidence", st.Confidence),
			obs.Float("cost", st.Cost),
			obs.Int("rules", st.NumRules),
			obs.Str("accepted", accepted),
			obs.Str("reason", st.Reason),
			obs.Str("cache_hit", hit))
	}
}

// SegmentAll runs the threshold search for every value of the criterion
// attribute, exploiting the BinArray's nseg+1 layout: no re-binning is
// needed to segment a different group (§3.1). The per-value runs only
// read shared state, so they execute concurrently (bounded by
// GOMAXPROCS). Results are keyed by criterion label.
func (s *System) SegmentAll() (map[string]*Result, error) {
	return s.SegmentAllContext(context.Background())
}

// SegmentAllContext is SegmentAll with cooperative cancellation. The
// per-value runs share the context; on cancellation the map still holds
// every value whose run completed — including degraded best-so-far
// results from runs that were mid-search — and the error is a
// *RunError{Phase: "segment-all"} whose Partial flag reports whether the
// map is non-empty. Non-cancellation failures of any value fail the
// whole segmentation with a nil map, as before.
func (s *System) SegmentAllContext(ctx context.Context) (map[string]*Result, error) {
	labels := s.schema.At(s.critIdx).Categories()
	sort.Strings(labels)
	type outcome struct {
		res *Result
		err error
	}
	outcomes := make([]outcome, len(labels))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, label := range labels {
		wg.Add(1)
		go func(i int, label string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := s.RunValueContext(ctx, label)
			if err != nil && isNoThresholds(err) {
				// A group too small to support any rules is reported as
				// an empty result rather than failing the segmentation.
				res, err = &Result{CritValue: label}, nil
			}
			outcomes[i] = outcome{res: res, err: err}
		}(i, label)
	}
	wg.Wait()
	out := make(map[string]*Result, len(labels))
	var cancelErr error
	for i, label := range labels {
		res, err := outcomes[i].res, outcomes[i].err
		if err != nil {
			if cancelcheck.IsCancel(err) {
				if cancelErr == nil {
					cancelErr = err
				}
				// A degraded run still yields a usable result; a refused
				// run yields nothing for this label.
				if res != nil {
					out[label] = res
				}
				continue
			}
			return nil, err
		}
		out[label] = res
	}
	if cancelErr != nil {
		return out, &RunError{Phase: "segment-all", Err: cancelErr, Partial: len(out) > 0}
	}
	return out, nil
}

func isNoThresholds(err error) bool {
	return errors.Is(err, optimizer.ErrNoThresholds)
}
