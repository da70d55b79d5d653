package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// quadObjective is a synthetic objective with a unique optimum at
// (optSup, optConf) and a smooth quadratic bowl around it.
type quadObjective struct {
	supports []float64
	confs    []float64
	optSup   float64
	optConf  float64
	evals    int
	failAt   int // evaluation number to fail at; 0 = never
}

func (q *quadObjective) SupportLevels() ([]float64, error) { return q.supports, nil }

func (q *quadObjective) ConfidenceLevels(sup float64) ([]float64, error) { return q.confs, nil }

func (q *quadObjective) Evaluate(p Probe) ProbeResult {
	q.evals++
	if q.failAt > 0 && q.evals >= q.failAt {
		return ProbeResult{Err: errors.New("objective failure")}
	}
	ds, dc := p.Support-q.optSup, p.Confidence-q.optConf
	return ProbeResult{Cost: 10 + 100*ds*ds + 100*dc*dc, NumRules: 3}
}

// strategy is the search method every strategy in this package has.
type strategy interface {
	Optimize(ctx context.Context, obj Objective) (Best, error)
}

func levels(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func newQuad() *quadObjective {
	return &quadObjective{
		supports: levels(0.01, 0.2, 20),
		confs:    levels(0.1, 0.9, 9),
		optSup:   0.05,
		optConf:  0.5,
	}
}

func TestThresholdWalkFindsOptimum(t *testing.T) {
	q := newQuad()
	// Epsilon -1 requests exact comparison so the walk tracks the true
	// optimum; the default 0.25-bit hysteresis intentionally favors
	// earlier low-support solutions.
	best, err := ThresholdWalk{Epsilon: -1}.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best.Support-q.optSup) > 0.02 {
		t.Errorf("support = %v, want near %v", best.Support, q.optSup)
	}
	if math.Abs(best.Confidence-q.optConf) > 0.11 {
		t.Errorf("confidence = %v, want near %v", best.Confidence, q.optConf)
	}
	if best.Evaluations == 0 || len(best.Trace) != best.Evaluations {
		t.Errorf("evaluations=%d trace=%d", best.Evaluations, len(best.Trace))
	}
}

func TestThresholdWalkStopsEarly(t *testing.T) {
	// With a bowl at the low end and sharp patience, the walk must not
	// probe every support level.
	q := newQuad()
	q.optSup = 0.01
	best, err := ThresholdWalk{Patience: 2}.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if best.Evaluations >= 20*9 {
		t.Errorf("walk did not stop early: %d evaluations", best.Evaluations)
	}
}

func TestThresholdWalkRespectsMaxEvals(t *testing.T) {
	q := newQuad()
	best, err := ThresholdWalk{MaxEvals: 7, Patience: 100}.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if best.Evaluations > 7 {
		t.Errorf("MaxEvals exceeded: %d", best.Evaluations)
	}
}

func TestThresholdWalkEmpty(t *testing.T) {
	q := &quadObjective{}
	if _, err := (ThresholdWalk{}).Optimize(context.Background(), q); !errors.Is(err, ErrNoThresholds) {
		t.Errorf("err = %v, want ErrNoThresholds", err)
	}
}

func TestThresholdWalkPropagatesError(t *testing.T) {
	q := newQuad()
	q.failAt = 3
	if _, err := (ThresholdWalk{}).Optimize(context.Background(), q); err == nil {
		t.Error("objective error should propagate")
	}
}

func TestAnnealFindsGoodSolution(t *testing.T) {
	q := newQuad()
	best, err := Anneal{Seed: 1, Iterations: 300}.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Annealing is stochastic; require it to get close.
	if math.Abs(best.Support-q.optSup) > 0.05 || math.Abs(best.Confidence-q.optConf) > 0.2 {
		t.Errorf("anneal best = (%v, %v), want near (%v, %v)",
			best.Support, best.Confidence, q.optSup, q.optConf)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	a, err := Anneal{Seed: 7}.Optimize(context.Background(), newQuad())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal{Seed: 7}.Optimize(context.Background(), newQuad())
	if err != nil {
		t.Fatal(err)
	}
	if a.Support != b.Support || a.Confidence != b.Confidence || a.Cost != b.Cost {
		t.Error("same seed should give identical results")
	}
}

func TestAnnealEmpty(t *testing.T) {
	if _, err := (Anneal{Seed: 1}).Optimize(context.Background(), &quadObjective{}); !errors.Is(err, ErrNoThresholds) {
		t.Errorf("err = %v", err)
	}
}

func TestFactorialConverges(t *testing.T) {
	q := newQuad()
	best, err := Factorial{Rounds: 8}.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best.Support-q.optSup) > 0.03 || math.Abs(best.Confidence-q.optConf) > 0.1 {
		t.Errorf("factorial best = (%v, %v), want near (%v, %v)",
			best.Support, best.Confidence, q.optSup, q.optConf)
	}
	// Factorial should be frugal: 5 probes per round minus dedup.
	if best.Evaluations > 8*5 {
		t.Errorf("too many evaluations: %d", best.Evaluations)
	}
}

func TestFactorialEmpty(t *testing.T) {
	if _, err := (Factorial{}).Optimize(context.Background(), &quadObjective{}); !errors.Is(err, ErrNoThresholds) {
		t.Errorf("err = %v", err)
	}
}

// noRulesObjective has support and confidence levels, but every
// threshold pair clusters to zero rules.
type noRulesObjective struct{ quadObjective }

func (z *noRulesObjective) Evaluate(Probe) ProbeResult {
	z.evals++
	return ProbeResult{Cost: 10}
}

// TestNoBestZeroRules: a search whose every probe yields zero rules
// reports ErrNoThresholds with the probe count, not an empty grid.
func TestNoBestZeroRules(t *testing.T) {
	for _, s := range []strategy{ThresholdWalk{}, Anneal{Seed: 1}, Factorial{}} {
		z := &noRulesObjective{*newQuad()}
		_, err := s.Optimize(context.Background(), z)
		if !errors.Is(err, ErrNoThresholds) {
			t.Fatalf("%T: err = %v, want ErrNoThresholds", s, err)
		}
		want := fmt.Sprintf("all %d probed threshold pairs yielded zero rules", z.evals)
		if msg := err.Error(); !strings.Contains(msg, want) || strings.Contains(msg, "no occupied cells") {
			t.Errorf("%T: err = %q, want it to say %q and not blame the grid", s, msg, want)
		}
	}
}

// TestNoBestNoLevels: with no support or confidence levels at all, the
// error names the empty grid.
func TestNoBestNoLevels(t *testing.T) {
	noConfs := newQuad()
	noConfs.confs = nil
	for _, s := range []strategy{ThresholdWalk{}, Anneal{Seed: 1}, Factorial{}} {
		for _, obj := range []*quadObjective{{}, noConfs} {
			_, err := s.Optimize(context.Background(), obj)
			if !errors.Is(err, ErrNoThresholds) || !strings.Contains(err.Error(), "no occupied cells") {
				t.Errorf("%T with %d support and %d confidence levels: err = %v, want ErrNoThresholds naming no occupied cells",
					s, len(obj.supports), len(obj.confs), err)
			}
		}
	}
}

func TestSubsample(t *testing.T) {
	xs := levels(0, 1, 100)
	got := subsample(xs, 10)
	if len(got) > 10 {
		t.Errorf("len = %d", len(got))
	}
	if got[0] != 0 || got[len(got)-1] != 1 {
		t.Errorf("endpoints missing: %v", got)
	}
	// Short inputs pass through.
	short := []float64{1, 2}
	if len(subsample(short, 10)) != 2 {
		t.Error("short input should pass through")
	}
	// A cap of 1 keeps the first, lowest value.
	for _, n := range []int{1, 2, 3, 100} {
		if got := subsample(xs[:n], 1); !reflect.DeepEqual(got, xs[:1]) {
			t.Errorf("subsample of %d values to 1 = %v, want [%v]", n, got, xs[0])
		}
	}
}

func TestZeroRuleEvaluationsNeverWin(t *testing.T) {
	// An objective that reports zero rules at its cheapest point: the
	// optimizer must pick a point with rules instead.
	q := &zeroRuleObjective{}
	best, err := ThresholdWalk{}.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if best.NumRules == 0 {
		t.Error("optimizer selected a zero-rule segmentation")
	}
}

type zeroRuleObjective struct{}

func (z *zeroRuleObjective) SupportLevels() ([]float64, error) { return []float64{0.1, 0.2}, nil }
func (z *zeroRuleObjective) ConfidenceLevels(float64) ([]float64, error) {
	return []float64{0.5}, nil
}
func (z *zeroRuleObjective) Evaluate(p Probe) ProbeResult {
	if p.Support > 0.15 {
		return ProbeResult{} // cheap but useless: no rules survive
	}
	return ProbeResult{Cost: 5, NumRules: 2}
}
