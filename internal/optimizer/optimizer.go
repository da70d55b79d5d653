// Package optimizer implements the heuristic parameter search of paper
// §3.7: finding the minimum-support and minimum-confidence thresholds
// whose segmentation minimizes the MDL cost. The search space is the set
// of threshold values that actually occur in the binned data (Figure 10);
// because ARCS re-mines from the in-memory BinArray, each probe is cheap.
//
// Two strategies are provided: the paper's low-to-high threshold walk,
// and simulated annealing, one of the future-work alternatives it names.
//
// The walk probes several threshold pairs whose outcomes are mutually
// independent, so it submits its probes as batches: an objective that
// implements ObjectiveBatch may evaluate a batch concurrently (the core
// system fans batches across a worker pool). Results are merged back in
// probe order, so Best and Trace are bit-identical to a strictly
// sequential evaluation.
//
// Each strategy has one method, Optimize(ctx, obj). On cancellation it
// stops between probes and returns its best-so-far result with the
// context's error. Every probe, alone or batched, is booked on the
// result by the same recorder, so each trace step carries what its
// probe did, including whether a cache answered it.
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"arcs/internal/cancelcheck"
)

// Objective is the feedback loop the optimizer drives: evaluating a
// threshold pair re-mines the rules, clusters them, verifies the
// segmentation against samples and returns its MDL cost. Implemented by
// the core ARCS system.
type Objective interface {
	// SupportLevels returns the unique support thresholds occurring in
	// the data, ascending.
	SupportLevels() ([]float64, error)
	// ConfidenceLevels returns candidate confidence thresholds for a
	// given support threshold, ascending.
	ConfidenceLevels(support float64) ([]float64, error)
	// Evaluate runs the pipeline at the probe's thresholds and returns
	// the MDL cost and the number of clustered rules produced. Evaluate
	// must be deterministic: the same thresholds always yield the same
	// cost, rule count and error.
	Evaluate(p Probe) ProbeResult
}

// Probe is one (support, confidence) threshold pair submitted for
// evaluation.
type Probe struct {
	Support, Confidence float64
}

// ProbeResult is the outcome of evaluating one Probe.
type ProbeResult struct {
	Cost     float64
	NumRules int
	Err      error
	// CacheHit reports whether the objective answered the probe from a
	// memoized cache rather than running the pipeline. Objectives that
	// do not memoize leave it false.
	CacheHit bool
}

// ObjectiveBatch is an Objective that can evaluate several independent
// probes at once — typically concurrently across a worker pool.
// EvaluateBatch must return one result per probe, in probe order, and
// each result must be identical to what an Evaluate call with the same
// probe would return; the strategies rely on that to stay bit-identical
// to their sequential form.
type ObjectiveBatch interface {
	Objective
	EvaluateBatch(probes []Probe) []ProbeResult
}

// evaluateAll evaluates probes in order, fanning out through the
// objective's batch path when it provides one. The sequential fallback
// stops at the first error and truncates the result slice there, which
// is indistinguishable from the batch path to callers that merge results
// in order and stop at the first error.
func evaluateAll(obj Objective, probes []Probe) []ProbeResult {
	if len(probes) == 0 {
		return nil
	}
	if b, ok := obj.(ObjectiveBatch); ok && len(probes) > 1 {
		return b.EvaluateBatch(probes)
	}
	out := make([]ProbeResult, 0, len(probes))
	for _, p := range probes {
		r := obj.Evaluate(p)
		out = append(out, r)
		// Isolated probe failures don't invalidate the rest of the batch —
		// keep going so the sequential path matches the batch path, which
		// always returns one result per probe.
		if r.Err != nil && !IsProbeFailure(r.Err) {
			break
		}
	}
	return out
}

// Probe outcome classifications recorded in Step.Reason.
const (
	// ReasonImproved marks a probe that displaced the incumbent best.
	ReasonImproved = "improved"
	// ReasonZeroRules marks a probe whose segmentation produced no rules
	// and was discarded regardless of cost.
	ReasonZeroRules = "zero-rules"
	// ReasonNoImprovement marks a probe that produced rules but did not
	// beat the incumbent (within the strategy's epsilon, if any).
	ReasonNoImprovement = "no-improvement"
	// ReasonFixed marks the single probe of a fixed-threshold run.
	ReasonFixed = "fixed"
	// ReasonProbeFailed marks a probe whose evaluation failed in a way the
	// objective declares isolated (see ErrProbeFailed) — typically a
	// recovered worker panic. The probe is skipped; the search continues.
	ReasonProbeFailed = "probe-failed"
)

// ErrProbeFailed marks probe errors confined to that single evaluation:
// an objective that recovers a crash inside one probe wraps it so the
// strategies skip the probe (recording a ReasonProbeFailed step and
// counting it in Best.Failures) instead of aborting the whole search.
// Errors not wrapping ErrProbeFailed abort the search as before.
var ErrProbeFailed = errors.New("optimizer: probe failed")

// IsProbeFailure reports whether err is an isolated probe failure.
func IsProbeFailure(err error) bool { return errors.Is(err, ErrProbeFailed) }

// Step records one probe of the search, for traces and reports.
type Step struct {
	Support, Confidence float64
	Cost                float64
	NumRules            int
	// Accepted reports whether this probe became the incumbent best at
	// the moment it was evaluated.
	Accepted bool
	// Reason classifies the outcome: one of the Reason* constants.
	Reason string
	// CacheHit reports whether the probe was answered from the
	// objective's memoized cache: ProbeResult.CacheHit, copied.
	CacheHit bool
}

// Best is the outcome of a search.
type Best struct {
	Support, Confidence float64
	Cost                float64
	NumRules            int
	Evaluations         int
	// Failures counts probes skipped as isolated failures (ErrProbeFailed);
	// they are included in Evaluations.
	Failures int
	Trace    []Step
}

// ErrNoThresholds is returned when a search finds no threshold pair
// that yields rules: the data admits no support or confidence levels,
// or every probed pair clustered to zero rules.
var ErrNoThresholds = errors.New("optimizer: no candidate thresholds")

// errNoLevels is ErrNoThresholds for data that admits no support or
// confidence levels at all: an empty grid.
var errNoLevels = fmt.Errorf("%w (no occupied cells)", ErrNoThresholds)

// noBest classifies a search that finished without a measured incumbent:
// when every recorded probe failed, the error says so (wrapping
// ErrProbeFailed) instead of claiming the data admits no rules —
// otherwise callers that tolerate ErrNoThresholds (SegmentAll's
// empty-group handling) would silently swallow a crashed search. A
// search that measured nothing found no level to probe; one that did
// saw every pair cluster to zero rules, and the error counts them
// rather than blaming the grid.
func noBest(best Best) error {
	measured := best.Evaluations - best.Failures
	switch {
	case best.Failures > 0 && measured == 0:
		return fmt.Errorf("optimizer: all %d probes failed: %w", best.Failures, ErrProbeFailed)
	case measured == 0:
		return errNoLevels
	}
	return fmt.Errorf("%w: all %d probed threshold pairs yielded zero rules", ErrNoThresholds, measured)
}

// record books one evaluated probe: it counts the evaluation, classifies
// the step as zero-rules, improved or no-improvement, moves the
// incumbent to the probe when its rules cost more than eps less, and
// appends the step to the trace. accepted reports that the probe became
// the incumbent. An isolated failure (ErrProbeFailed) is recorded as a
// probe-failed step and skipped, with a nil error. Cancellation comes
// back unwrapped so callers can classify it; any other failure is
// wrapped with the probe's thresholds and aborts the search.
func (b *Best) record(p Probe, r ProbeResult, eps float64) (accepted bool, err error) {
	step := Step{Support: p.Support, Confidence: p.Confidence, CacheHit: r.CacheHit}
	if r.Err == nil {
		step.Cost, step.NumRules = r.Cost, r.NumRules
	}
	switch {
	case cancelcheck.IsCancel(r.Err):
		return false, r.Err
	case IsProbeFailure(r.Err):
		b.Failures++
		step.Reason = ReasonProbeFailed
	case r.Err != nil:
		return false, fmt.Errorf("optimizer: evaluating (%g, %g): %w", p.Support, p.Confidence, r.Err)
	case r.NumRules == 0:
		// Segmentations with zero rules are useless regardless of cost.
		step.Reason = ReasonZeroRules
	case r.Cost < b.Cost-eps:
		step.Accepted, step.Reason = true, ReasonImproved
		b.Support, b.Confidence = p.Support, p.Confidence
		b.Cost, b.NumRules = r.Cost, r.NumRules
	default:
		step.Reason = ReasonNoImprovement
	}
	b.Evaluations++
	b.Trace = append(b.Trace, step)
	return step.Accepted, nil
}

// ThresholdWalk is the paper's search: begin with a low minimum support
// so dynamic pruning can remove unnecessary rules, then gradually
// increase it to shed background noise and outliers, stopping when the
// cost stops improving (within Epsilon) for Patience consecutive support
// levels. At each support level a bounded set of candidate confidences is
// probed — as one batch, since the probes are independent. Beyond
// Patience, two budgets stop it: MaxEvals, a count of probes, and the
// context Optimize takes, whose deadline is §2.2's "the verifier
// determines that the budgeted time has expired"; a walk stopped by its
// context returns its best-so-far result with the context's error.
type ThresholdWalk struct {
	// Epsilon is the minimum cost improvement (in MDL bits) that counts
	// as progress: a later probe replaces the incumbent only when it is
	// more than Epsilon cheaper. This both implements the paper's
	// "no improvement within some ε" convergence test and realizes its
	// preference for low-support solutions — marginal wins discovered
	// deep into the walk (typically degenerate near-empty segmentations
	// at extreme thresholds, which the flat log2(|C|) model term prices
	// too cheaply) do not displace an established low-threshold
	// segmentation. Zero means 0.25 bits; negative means exact
	// comparison.
	Epsilon float64
	// Patience is how many consecutive support levels with no accepted
	// probe to tolerate before stopping. Zero means 3.
	Patience int
	// MaxSupportLevels caps how many distinct support thresholds are
	// visited (even sub-sampling when the data has more, keeping the
	// lowest and the highest). A cap of 1 visits only the lowest, where
	// the walk starts. Zero means 48.
	MaxSupportLevels int
	// MaxConfLevels caps the confidence candidates probed per support
	// level (even sub-sampling, keeping the lowest and the highest). A
	// cap of 1 probes only the lowest. Zero means 8.
	MaxConfLevels int
	// MaxEvals bounds total objective evaluations — the deterministic
	// stand-in for the paper's "budgeted time". Zero means 512.
	MaxEvals int
}

func (w ThresholdWalk) defaults() ThresholdWalk {
	if w.Epsilon == 0 {
		w.Epsilon = 0.25
	} else if w.Epsilon < 0 {
		w.Epsilon = 0
	}
	if w.Patience == 0 {
		w.Patience = 3
	}
	if w.MaxSupportLevels == 0 {
		w.MaxSupportLevels = 48
	}
	if w.MaxConfLevels == 0 {
		w.MaxConfLevels = 8
	}
	if w.MaxEvals == 0 {
		w.MaxEvals = 512
	}
	return w
}

// Optimize runs the walk. The context is checked between support levels
// and across each level's probe batch; on cancellation the walk returns
// the incumbent best with the error, so the caller can degrade to a
// partial result.
func (w ThresholdWalk) Optimize(ctx context.Context, obj Objective) (Best, error) {
	w = w.defaults()
	ck := cancelcheck.New(ctx)
	allSupports, err := obj.SupportLevels()
	if err != nil {
		return Best{}, fmt.Errorf("optimizer: support levels: %w", err)
	}
	supports := subsample(allSupports, w.MaxSupportLevels)
	if len(supports) == 0 {
		return Best{}, errNoLevels
	}
	best := Best{Cost: math.Inf(1)}
	sinceImprove := 0
	for _, sup := range supports {
		if err := ck.Err(); err != nil {
			return best, err
		}
		if best.Evaluations >= w.MaxEvals {
			break
		}
		allConfs, err := obj.ConfidenceLevels(sup)
		if err != nil {
			return best, fmt.Errorf("optimizer: confidence levels at %g: %w", sup, err)
		}
		confs := subsample(allConfs, w.MaxConfLevels)
		if len(confs) == 0 {
			continue
		}
		if budget := w.MaxEvals - best.Evaluations; len(confs) > budget {
			confs = confs[:budget]
		}
		probes := make([]Probe, len(confs))
		for i, conf := range confs {
			probes[i] = Probe{Support: sup, Confidence: conf}
		}
		improved := false
		for i, r := range evaluateAll(obj, probes) {
			accepted, err := best.record(probes[i], r, w.Epsilon)
			if err != nil {
				return best, err
			}
			improved = improved || accepted
		}
		if improved {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if sinceImprove >= w.Patience {
			break
		}
	}
	if math.IsInf(best.Cost, 1) {
		return best, noBest(best)
	}
	return best, nil
}

// subsample returns up to max values of xs, evenly spaced, always
// including the first and, for a max of 2 or more, the last. A max of 1
// keeps the first value alone: the lowest support, where §3.7's walk
// starts, or the lowest confidence.
func subsample(xs []float64, max int) []float64 {
	if len(xs) <= max || max <= 0 {
		return xs
	}
	if max == 1 {
		return xs[:1]
	}
	out := make([]float64, 0, max)
	for i := 0; i < max; i++ {
		pos := float64(i) / float64(max-1) * float64(len(xs)-1)
		out = append(out, xs[int(math.Round(pos))])
	}
	// Deduplicate adjacent picks caused by rounding.
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Anneal searches by simulated annealing over the indices of the
// threshold lists (paper §5 suggests annealing as an alternative search).
// It is useful when the cost surface has local minima the walk gets stuck
// in. Each proposal depends on whether the previous one was accepted, so
// the annealing chain is inherently sequential; it still benefits from a
// memoizing objective when the chain revisits states.
type Anneal struct {
	// Seed drives the random walk; runs are deterministic per seed.
	Seed int64
	// Iterations is the number of proposals. Zero means 200.
	Iterations int
	// InitialTemp scales early acceptance of worse moves. Zero means 2.
	InitialTemp float64
	// Cooling is the geometric cooling factor per iteration. Zero means
	// 0.97.
	Cooling float64
}

func (a Anneal) defaults() Anneal {
	if a.Iterations == 0 {
		a.Iterations = 200
	}
	if a.InitialTemp == 0 {
		a.InitialTemp = 2
	}
	if a.Cooling == 0 {
		a.Cooling = 0.97
	}
	return a
}

// Optimize runs the chain. The context is checked before every
// proposal; on cancellation the chain stops and returns the incumbent
// best with the error. An isolated probe failure rejects only that
// proposal (the chain stays where it was, consuming the RNG identically
// up to the failed evaluation).
func (a Anneal) Optimize(ctx context.Context, obj Objective) (Best, error) {
	a = a.defaults()
	ck := cancelcheck.New(ctx)
	supports, err := obj.SupportLevels()
	if err != nil {
		return Best{}, fmt.Errorf("optimizer: support levels: %w", err)
	}
	if len(supports) == 0 {
		return Best{}, errNoLevels
	}
	rng := rand.New(rand.NewSource(a.Seed))
	best := Best{Cost: math.Inf(1)}

	// eval probes one state; ok=false marks an isolated probe failure
	// (already recorded on the trace) that rejects just this proposal.
	eval := func(si int, conf float64) (cost float64, ok bool, err error) {
		p := Probe{Support: supports[si], Confidence: conf}
		r := obj.Evaluate(p)
		if _, err := best.record(p, r, 0); err != nil {
			return 0, false, err
		}
		return r.Cost, r.Err == nil, nil
	}

	// Start at the lowest support with its median confidence, matching
	// the paper's low-support starting point.
	si := 0
	confs, err := obj.ConfidenceLevels(supports[si])
	if err != nil {
		return Best{}, fmt.Errorf("optimizer: confidence levels at %g: %w", supports[si], err)
	}
	if len(confs) == 0 {
		return Best{}, errNoLevels
	}
	cur, ok, err := eval(si, confs[len(confs)/2])
	if err != nil {
		return best, err
	}
	if !ok {
		// The chain has no measured starting cost: any successful proposal
		// is an improvement over +Inf.
		cur = math.Inf(1)
	}
	temp := a.InitialTemp
	for it := 0; it < a.Iterations; it++ {
		if err := ck.Err(); err != nil {
			return best, err
		}
		// Propose a neighboring state: jitter the support index and pick
		// a random candidate confidence for it. The chain moves on its
		// support index alone; every proposal draws its confidence afresh.
		nsi := si + rng.Intn(5) - 2
		if nsi < 0 {
			nsi = 0
		}
		if nsi >= len(supports) {
			nsi = len(supports) - 1
		}
		nconfs, err := obj.ConfidenceLevels(supports[nsi])
		if err != nil {
			return best, fmt.Errorf("optimizer: confidence levels at %g: %w", supports[nsi], err)
		}
		if len(nconfs) == 0 {
			continue
		}
		nconf := nconfs[rng.Intn(len(nconfs))]
		cost, ok, err := eval(nsi, nconf)
		if err != nil {
			return best, err
		}
		if ok && (cost <= cur || rng.Float64() < math.Exp((cur-cost)/temp)) {
			si, cur = nsi, cost
		}
		temp *= a.Cooling
	}
	if math.IsInf(best.Cost, 1) {
		return best, noBest(best)
	}
	return best, nil
}
