// Package quality measures mining quality the way internal/obs measures
// performance: as a first-class, trended, gated signal. Given a mined
// core.Result and ground truth — a held-out test table, and (for
// synthetic workloads) the generating disjuncts exported by
// internal/synth — it computes the numbers a refactor could silently
// regress while every functional test stays green:
//
//   - classification error (FP + FN rate on the held-out table),
//   - rule count and the MDL cost the optimizer settled on,
//   - rectangle recovery against the generating disjuncts: area
//     precision, recall and IoU of the mined union, plus the best
//     single-rule IoU per disjunct,
//   - per-rule interestingness measures from the association-rule
//     literature: support, confidence, lift, conviction and interest
//     (Piatetsky-Shapiro leverage), all measured on the held-out table.
//
// The package is deliberately free of mining logic, of the synth
// generator and of coverage loops: ground-truth rectangles arrive as
// plain rules.Rects so any workload with known geometry can use it, and
// every count comes from internal/verify's one table pass
// (verify.SegmentStats) and one lattice walk (verify.MeasureLattice);
// this package only does arithmetic over them. experiments.Quality runs
// it across all ten Agrawal functions into BENCH_quality.json, arcsd
// runs it after synthetic jobs, and arcstrace diff gates its trajectory.
package quality

import (
	"fmt"
	"math"

	"arcs/internal/core"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/rules"
	"arcs/internal/verify"
)

// latticeSteps is the per-axis resolution of the recovery lattice:
// 200×200 = 40k area samples.
const latticeSteps = 200

// Options parameterizes Evaluate. XAttr/YAttr/CritAttr/CritValue are
// required and must resolve in the test table's schema.
type Options struct {
	// XAttr and YAttr are the LHS attributes the result was mined over.
	XAttr, YAttr string
	// CritAttr is the criterion attribute; CritValue the segmented group.
	CritAttr, CritValue string

	// Truth, when non-nil, are the generating disjuncts in the (XAttr,
	// YAttr) plane; rectangle-recovery metrics are computed against
	// them over the [XLo,XHi)×[YLo,YHi) domain. Nil skips recovery.
	Truth []rules.Rect
	// XLo/XHi/YLo/YHi bound the recovery lattice. Required when Truth
	// is set.
	XLo, XHi float64
	YLo, YHi float64
}

// RuleMeasures are the standard interestingness measures of one
// clustered rule X => (crit = value), estimated on the held-out table.
type RuleMeasures struct {
	// Rule is the rendered rule text, the stable join key for humans.
	Rule string `json:"rule"`
	// Support is P(X ∧ crit=value): covered tuples carrying the value.
	Support float64 `json:"support"`
	// Confidence is P(crit=value | X).
	Confidence float64 `json:"confidence"`
	// Lift is Confidence / P(crit=value): >1 marks positive association
	// beyond the criterion value's base rate.
	Lift float64 `json:"lift"`
	// Conviction is (1 − P(crit=value)) / (1 − Confidence): how much
	// more often the rule would have to be wrong if antecedent and
	// consequent were independent. 1 = independent; capped at
	// MaxConviction for confidence-1 rules so the value stays JSON- and
	// diff-friendly instead of going infinite.
	Conviction float64 `json:"conviction"`
	// Interest is the Piatetsky-Shapiro leverage
	// P(X ∧ value) − P(X)·P(value): the absolute support surplus over
	// independence. Zero = independent, positive = interesting.
	Interest float64 `json:"interest"`
}

// MaxConviction caps the conviction measure for rules whose measured
// confidence is 1 (the true value is +Inf).
const MaxConviction = 1000.0

// Recovery measures how well the mined rectangles recover the
// generating disjuncts, by area over the evaluation lattice.
type Recovery struct {
	// Precision is |mined ∩ truth| / |mined|: the fraction of claimed
	// area that is genuinely Group territory. 1 when nothing is mined.
	Precision float64 `json:"precision"`
	// Recall is |mined ∩ truth| / |truth|: the fraction of generating
	// area the segmentation found.
	Recall float64 `json:"recall"`
	// IoU is |mined ∩ truth| / |mined ∪ truth| — the headline number
	// the quality gate trends, 1.0 for a perfect cover.
	IoU float64 `json:"iou"`
	// PerRegionIoU is, for each generating disjunct in input order, the
	// best IoU any single mined rule achieves against it — did each
	// disjunct come back as one clean rectangle?
	PerRegionIoU []float64 `json:"per_region_iou"`
}

// Report is the quality measurement of one mined Result.
type Report struct {
	// CritValue is the segmented group.
	CritValue string `json:"criterion_value"`
	// Rules is the rule count of the segmentation.
	Rules int `json:"rules"`
	// MDLCost is the cost the optimizer settled on (core.Result.Cost).
	MDLCost float64 `json:"mdl_cost"`
	// MinSupport / MinConfidence are the chosen thresholds.
	MinSupport    float64 `json:"min_support"`
	MinConfidence float64 `json:"min_confidence"`

	// TestN is the held-out table size the measures below come from.
	TestN int `json:"test_n"`
	// FalsePositives / FalseNegatives / ErrorPct are the held-out
	// classification error: covered-but-wrong and uncovered-but-right
	// counts and their summed rate in percent.
	FalsePositives int     `json:"false_positives"`
	FalseNegatives int     `json:"false_negatives"`
	ErrorPct       float64 `json:"error_pct"`

	// Recovery is nil when no ground-truth rectangles were supplied.
	Recovery *Recovery `json:"recovery,omitempty"`

	// RuleMeasures has one entry per rule, in Result.Rules order.
	RuleMeasures []RuleMeasures `json:"rule_measures,omitempty"`
}

// Evaluate measures res against the held-out table under opts. The
// table must carry the mined attributes; the criterion value must be a
// registered category of the criterion attribute.
func Evaluate(res *core.Result, test *dataset.Table, opts Options) (*Report, error) {
	if res == nil {
		return nil, fmt.Errorf("quality: nil result")
	}
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("quality: empty test table")
	}
	schema := test.Schema()
	xIdx, err := schema.Index(opts.XAttr)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	yIdx, err := schema.Index(opts.YAttr)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	critIdx, err := schema.Index(opts.CritAttr)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	segCode, ok := schema.At(critIdx).LookupCategory(opts.CritValue)
	if !ok {
		return nil, fmt.Errorf("quality: criterion value %q not a category of %q", opts.CritValue, opts.CritAttr)
	}

	e, labeled, stats, err := verify.SegmentStats(res.Rules, test, xIdx, yIdx, critIdx, segCode)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	rep := &Report{
		CritValue:      res.CritValue,
		Rules:          len(res.Rules),
		MDLCost:        res.Cost,
		MinSupport:     res.MinSupport,
		MinConfidence:  res.MinConfidence,
		TestN:          e.Total,
		FalsePositives: e.FalsePositives,
		FalseNegatives: e.FalseNegatives,
		ErrorPct:       100 * float64(e.Errors()) / float64(e.Total),
		RuleMeasures:   ruleMeasures(stats, labeled, e.Total),
	}
	if len(opts.Truth) > 0 {
		rec, err := measureRecovery(res.Rules, opts)
		if err != nil {
			return nil, err
		}
		rep.Recovery = rec
	}
	return rep, nil
}

// ruleMeasures derives the per-rule interestingness measures from the
// table pass's counts: labeled of the n tuples carry the criterion
// value.
func ruleMeasures(stats []verify.RuleStats, labeled, n int) []RuleMeasures {
	if len(stats) == 0 {
		return nil
	}
	prior := float64(labeled) / float64(n)
	out := make([]RuleMeasures, len(stats))
	for j, st := range stats {
		m := RuleMeasures{Rule: st.Rule.String(), Support: st.Support, Confidence: st.Confidence}
		supX := float64(st.Covered) / float64(n)
		if prior > 0 {
			m.Lift = m.Confidence / prior
		}
		switch {
		case m.Confidence >= 1:
			m.Conviction = MaxConviction
		default:
			m.Conviction = math.Min((1-prior)/(1-m.Confidence), MaxConviction)
		}
		m.Interest = m.Support - supX*prior
		out[j] = m
	}
	return out
}

// measureRecovery computes the area precision/recall/IoU of the mined
// union against the ground-truth disjuncts, plus the best single-rule
// IoU per disjunct, from one lattice walk over the domain (exact
// interval arithmetic over unions buys nothing at the gate's noise
// floors).
func measureRecovery(rs []rules.ClusteredRule, opts Options) (*Recovery, error) {
	lc, err := verify.MeasureLattice(rs, opts.Truth, opts.XLo, opts.XHi, opts.YLo, opts.YHi, latticeSteps)
	if err != nil {
		return nil, fmt.Errorf("quality: recovery: %w", err)
	}
	rec := &Recovery{Precision: 1}
	if lc.Mined > 0 {
		rec.Precision = float64(lc.Both) / float64(lc.Mined)
	}
	if lc.Truth > 0 {
		rec.Recall = float64(lc.Both) / float64(lc.Truth)
	}
	if union := lc.Mined + lc.Truth - lc.Both; union > 0 {
		rec.IoU = float64(lc.Both) / float64(union)
	}
	rec.PerRegionIoU = make([]float64, len(opts.Truth))
	for k := range opts.Truth {
		best := 0.0
		for r := range rs {
			inter := lc.Inter[r][k]
			union := lc.RuleArea[r] + lc.RegionArea[k] - inter
			if union > 0 {
				if iou := float64(inter) / float64(union); iou > best {
					best = iou
				}
			}
		}
		rec.PerRegionIoU[k] = best
	}
	return rec, nil
}

// Observe publishes a report's headline numbers into a metrics
// registry, making quality scrapeable wherever perf already is: gauges
// quality_error_rate_pct / quality_rules / quality_mdl_cost /
// quality_recovery_iou (recovery only when measured), and histograms
// quality_rule_lift / quality_rule_conviction with one observation per
// rule. In a shared registry (arcsd) the gauges reflect the most
// recently evaluated run, matching the runtime gauges' semantics.
// Nil-safe in both arguments.
func (rep *Report) Observe(reg *obs.Registry) {
	if rep == nil || reg == nil {
		return
	}
	reg.FloatGauge("quality_error_rate_pct").Set(rep.ErrorPct)
	reg.Gauge("quality_rules").Set(int64(rep.Rules))
	reg.FloatGauge("quality_mdl_cost").Set(rep.MDLCost)
	if rep.Recovery != nil {
		reg.FloatGauge("quality_recovery_iou").Set(rep.Recovery.IoU)
		reg.FloatGauge("quality_recovery_precision").Set(rep.Recovery.Precision)
		reg.FloatGauge("quality_recovery_recall").Set(rep.Recovery.Recall)
	}
	lift := reg.HistogramBuckets("quality_rule_lift", LiftBuckets)
	conv := reg.HistogramBuckets("quality_rule_conviction", LiftBuckets)
	for _, m := range rep.RuleMeasures {
		lift.Observe(m.Lift)
		conv.Observe(m.Conviction)
	}
}

// LiftBuckets bound the lift/conviction histograms: 1 is independence,
// the top bucket absorbs the MaxConviction cap.
var LiftBuckets = []float64{0.5, 0.8, 1, 1.2, 1.5, 2, 3, 5, 10, 50, MaxConviction}
