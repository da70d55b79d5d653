// Package optimizer implements the heuristic parameter search of paper
// §3.7: finding the minimum-support and minimum-confidence thresholds
// whose segmentation minimizes the MDL cost. The search space is the set
// of threshold values that actually occur in the binned data (Figure 10);
// because ARCS re-mines from the in-memory BinArray, each probe is cheap.
//
// Three strategies are provided: the paper's low-to-high threshold walk,
// and the two future-work alternatives it names — simulated annealing and
// two-level factorial design.
//
// The walk and the factorial design probe several threshold pairs whose
// outcomes are mutually independent, so both submit their probes as
// batches: an objective that implements ObjectiveBatch may evaluate a
// batch concurrently (the core system fans batches across a worker
// pool). Results are merged back in probe order, so Best and Trace are
// bit-identical to a strictly sequential evaluation.
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

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
	// Evaluate runs the pipeline at the thresholds and returns the MDL
	// cost and the number of clustered rules produced. Evaluate must be
	// deterministic: the same thresholds always yield the same result.
	Evaluate(support, confidence float64) (cost float64, numRules int, err error)
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
// each result must be identical to what a sequential Evaluate call with
// the same thresholds would return; the strategies rely on that to stay
// bit-identical to their sequential form.
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
		cost, n, err := obj.Evaluate(p.Support, p.Confidence)
		out = append(out, ProbeResult{Cost: cost, NumRules: n, Err: err})
		// Isolated probe failures don't invalidate the rest of the batch —
		// keep going so the sequential path matches the batch path, which
		// always returns one result per probe.
		if err != nil && !IsProbeFailure(err) {
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
	// objective's memoized cache (populated on the batch path; probes
	// evaluated through the plain Evaluate call leave it false).
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

// Strategy is a search procedure over the objective.
type Strategy interface {
	Optimize(obj Objective) (Best, error)
}

// ContextStrategy is a Strategy supporting cooperative cancellation: on
// context cancellation OptimizeContext stops between probe batches and
// returns the best threshold pair found so far together with the
// cancellation error, so the caller can degrade to a partial result. All
// strategies in this package implement it.
type ContextStrategy interface {
	Strategy
	OptimizeContext(ctx context.Context, obj Objective) (Best, error)
}

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

// probeErr handles one failed probe. Isolated failures (ErrProbeFailed)
// are recorded on the trace and skipped — it returns nil and the search
// continues. Cancellation propagates unwrapped so callers can classify
// it; anything else is wrapped with the probe position and aborts.
func probeErr(best *Best, sup, conf float64, err error) error {
	if cancelcheck.IsCancel(err) {
		return err
	}
	if IsProbeFailure(err) {
		best.Evaluations++
		best.Failures++
		best.Trace = append(best.Trace, Step{Support: sup, Confidence: conf, Reason: ReasonProbeFailed})
		return nil
	}
	return fmt.Errorf("optimizer: evaluating (%g, %g): %w", sup, conf, err)
}

// ThresholdWalk is the paper's search: begin with a low minimum support
// so dynamic pruning can remove unnecessary rules, then gradually
// increase it to shed background noise and outliers, stopping when the
// cost stops improving (within Epsilon) for Patience consecutive support
// levels. At each support level a bounded set of candidate confidences is
// probed — as one batch, since the probes are independent.
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
	// Patience is how many non-improving support levels to tolerate
	// before stopping. Zero means 3.
	Patience int
	// MaxSupportLevels caps how many distinct support thresholds are
	// visited (even sub-sampling when the data has more). Zero means 48.
	MaxSupportLevels int
	// MaxConfLevels caps the confidence candidates probed per support
	// level (even sub-sampling). Zero means 8.
	MaxConfLevels int
	// MaxEvals bounds total objective evaluations — the deterministic
	// stand-in for the paper's "budgeted time". Zero means 512.
	MaxEvals int
	// TimeBudget, when positive, stops the walk once the wall-clock
	// budget is spent (checked between probe batches) — the literal form
	// of §2.2's "the verifier determines that the budgeted time has
	// expired". Prefer MaxEvals in tests; it is deterministic.
	TimeBudget time.Duration
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

// Optimize implements Strategy.
func (w ThresholdWalk) Optimize(obj Objective) (Best, error) {
	return w.OptimizeContext(context.Background(), obj)
}

// OptimizeContext implements ContextStrategy: the context is checked
// between support levels and across each level's probe batch, and on
// cancellation the walk returns the incumbent best with the error.
func (w ThresholdWalk) OptimizeContext(ctx context.Context, obj Objective) (Best, error) {
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
	var deadline time.Time
	if w.TimeBudget > 0 {
		deadline = time.Now().Add(w.TimeBudget)
	}
	expired := func() bool {
		return !deadline.IsZero() && !time.Now().Before(deadline)
	}
	best := Best{Cost: math.Inf(1)}
	sinceImprove := 0
	for _, sup := range supports {
		if err := ck.Err(); err != nil {
			return best, err
		}
		if best.Evaluations >= w.MaxEvals || expired() {
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
		levelBest := math.Inf(1)
		for i, r := range evaluateAll(obj, probes) {
			if r.Err != nil {
				if perr := probeErr(&best, sup, confs[i], r.Err); perr != nil {
					return best, perr
				}
				continue
			}
			best.Evaluations++
			step := Step{Support: sup, Confidence: confs[i],
				Cost: r.Cost, NumRules: r.NumRules, CacheHit: r.CacheHit}
			// Segmentations with zero rules are useless regardless of
			// cost; they count neither as the level's best nor as the
			// overall winner.
			if r.NumRules > 0 && r.Cost < levelBest {
				levelBest = r.Cost
			}
			switch {
			case r.NumRules == 0:
				step.Reason = ReasonZeroRules
			case r.Cost < best.Cost-w.Epsilon:
				step.Accepted, step.Reason = true, ReasonImproved
				best.Support, best.Confidence = sup, confs[i]
				best.Cost = r.Cost
				best.NumRules = r.NumRules
				sinceImprove = -1 // reset below after the level finishes
			default:
				step.Reason = ReasonNoImprovement
			}
			best.Trace = append(best.Trace, step)
		}
		if levelBest >= best.Cost-w.Epsilon {
			sinceImprove++
			if sinceImprove >= w.Patience {
				break
			}
		} else {
			sinceImprove = 0
		}
	}
	if math.IsInf(best.Cost, 1) {
		return best, noBest(best)
	}
	return best, nil
}

// subsample returns up to max values of xs, evenly spaced, always
// including the first and last.
func subsample(xs []float64, max int) []float64 {
	if len(xs) <= max || max <= 0 {
		return xs
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

// Optimize implements Strategy.
func (a Anneal) Optimize(obj Objective) (Best, error) {
	return a.OptimizeContext(context.Background(), obj)
}

// OptimizeContext implements ContextStrategy: the context is checked
// before every proposal, and on cancellation the chain stops and returns
// the incumbent best with the error. An isolated probe failure rejects
// only that proposal (the chain stays where it was, consuming the RNG
// identically up to the failed evaluation).
func (a Anneal) OptimizeContext(ctx context.Context, obj Objective) (Best, error) {
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
		cost, n, err := obj.Evaluate(supports[si], conf)
		if err != nil {
			if perr := probeErr(&best, supports[si], conf, err); perr != nil {
				return 0, false, perr
			}
			return 0, false, nil
		}
		best.Evaluations++
		step := Step{Support: supports[si], Confidence: conf, Cost: cost, NumRules: n}
		switch {
		case n == 0:
			step.Reason = ReasonZeroRules
		case cost < best.Cost:
			step.Accepted, step.Reason = true, ReasonImproved
			best.Support, best.Confidence = supports[si], conf
			best.Cost, best.NumRules = cost, n
		default:
			step.Reason = ReasonNoImprovement
		}
		best.Trace = append(best.Trace, step)
		return cost, true, nil
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
	conf := confs[len(confs)/2]
	cur, ok, err := eval(si, conf)
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
		// a random candidate confidence for it.
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
			si, conf, cur = nsi, nconf, cost
		}
		temp *= a.Cooling
	}
	_ = conf
	if math.IsInf(best.Cost, 1) {
		return best, noBest(best)
	}
	return best, nil
}

// Factorial searches with iterated two-level factorial design (Fisher;
// paper §5): it evaluates the corners and center of the current
// (support, confidence) box, recenters on the best probe, halves the box
// and repeats. This greatly reduces the number of runs compared to an
// exhaustive sweep. The probes of each round are independent and are
// submitted as one batch.
type Factorial struct {
	// Rounds of box halving. Zero means 6.
	Rounds int
}

func (f Factorial) defaults() Factorial {
	if f.Rounds == 0 {
		f.Rounds = 6
	}
	return f
}

// Optimize implements Strategy.
func (f Factorial) Optimize(obj Objective) (Best, error) {
	return f.OptimizeContext(context.Background(), obj)
}

// OptimizeContext implements ContextStrategy: the context is checked at
// every round boundary, and on cancellation the design stops and returns
// the incumbent best with the error.
func (f Factorial) OptimizeContext(ctx context.Context, obj Objective) (Best, error) {
	f = f.defaults()
	ck := cancelcheck.New(ctx)
	supports, err := obj.SupportLevels()
	if err != nil {
		return Best{}, fmt.Errorf("optimizer: support levels: %w", err)
	}
	if len(supports) == 0 {
		return Best{}, errNoLevels
	}
	confsAll, err := obj.ConfidenceLevels(supports[0])
	if err != nil {
		return Best{}, fmt.Errorf("optimizer: confidence levels at %g: %w", supports[0], err)
	}
	if len(confsAll) == 0 {
		return Best{}, errNoLevels
	}
	supLo, supHi := supports[0], supports[len(supports)-1]
	confLo, confHi := confsAll[0], confsAll[len(confsAll)-1]

	best := Best{Cost: math.Inf(1)}
	seen := map[[2]float64]bool{}

	cs, cc := (supLo+supHi)/2, (confLo+confHi)/2 // box center
	hs, hc := (supHi-supLo)/2, (confHi-confLo)/2 // half-widths
	for round := 0; round < f.Rounds; round++ {
		if err := ck.Err(); err != nil {
			return best, err
		}
		corners := [][2]float64{
			{cs - hs, cc - hc}, {cs - hs, cc + hc},
			{cs + hs, cc - hc}, {cs + hs, cc + hc},
			{cs, cc},
		}
		// Clamp and drop already-probed corners, keeping first-occurrence
		// order: the round's survivors form one independent batch.
		probes := make([]Probe, 0, len(corners))
		for _, p := range corners {
			sup := clamp(p[0], supLo, supHi)
			conf := clamp(p[1], confLo, confHi)
			key := [2]float64{sup, conf}
			if seen[key] {
				continue
			}
			seen[key] = true
			probes = append(probes, Probe{Support: sup, Confidence: conf})
		}
		roundBest := math.Inf(1)
		var rbs, rbc float64
		for i, r := range evaluateAll(obj, probes) {
			if r.Err != nil {
				if perr := probeErr(&best, probes[i].Support, probes[i].Confidence, r.Err); perr != nil {
					return best, perr
				}
				continue
			}
			sup, conf := probes[i].Support, probes[i].Confidence
			best.Evaluations++
			step := Step{Support: sup, Confidence: conf,
				Cost: r.Cost, NumRules: r.NumRules, CacheHit: r.CacheHit}
			switch {
			case r.NumRules == 0:
				step.Reason = ReasonZeroRules
			case r.Cost < best.Cost:
				step.Accepted, step.Reason = true, ReasonImproved
				best.Support, best.Confidence = sup, conf
				best.Cost, best.NumRules = r.Cost, r.NumRules
			default:
				step.Reason = ReasonNoImprovement
			}
			best.Trace = append(best.Trace, step)
			if r.Cost < roundBest {
				roundBest = r.Cost
				rbs, rbc = sup, conf
			}
		}
		if !math.IsInf(roundBest, 1) {
			cs, cc = rbs, rbc
		}
		hs /= 2
		hc /= 2
	}
	if math.IsInf(best.Cost, 1) {
		return best, noBest(best)
	}
	return best, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
