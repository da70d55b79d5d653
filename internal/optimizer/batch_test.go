package optimizer

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// batchObjective wraps another objective with an EvaluateBatch that
// evaluates probes concurrently, recording the batch sizes it saw. It
// mimics the core system's worker-pool objective.
type batchObjective struct {
	inner Objective

	mu      sync.Mutex
	batches []int
}

func (b *batchObjective) SupportLevels() ([]float64, error) { return b.inner.SupportLevels() }
func (b *batchObjective) ConfidenceLevels(sup float64) ([]float64, error) {
	return b.inner.ConfidenceLevels(sup)
}
func (b *batchObjective) Evaluate(p Probe) ProbeResult { return b.inner.Evaluate(p) }

func (b *batchObjective) EvaluateBatch(probes []Probe) []ProbeResult {
	b.mu.Lock()
	b.batches = append(b.batches, len(probes))
	b.mu.Unlock()
	out := make([]ProbeResult, len(probes))
	var wg sync.WaitGroup
	for i := range probes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = b.inner.Evaluate(probes[i])
		}(i)
	}
	wg.Wait()
	return out
}

// detObjective is a stateless deterministic bowl: safe for concurrent
// Evaluate calls, unlike quadObjective's eval counter.
type detObjective struct {
	supports, confs  []float64
	optSup, optConf  float64
	failSup, failCnf float64 // probe that errors; zero value disables
}

func (d *detObjective) SupportLevels() ([]float64, error)           { return d.supports, nil }
func (d *detObjective) ConfidenceLevels(float64) ([]float64, error) { return d.confs, nil }
func (d *detObjective) Evaluate(p Probe) ProbeResult {
	if p.Support == d.failSup && p.Confidence == d.failCnf && p.Support != 0 {
		return ProbeResult{Err: errors.New("objective failure")}
	}
	ds, dc := p.Support-d.optSup, p.Confidence-d.optConf
	r := ProbeResult{Cost: 10 + 100*ds*ds + 100*dc*dc, NumRules: 3}
	if p.Confidence > 0.85 { // exercise the zero-rule path in batched mode too
		r.NumRules = 0
	}
	return r
}

func newDet() *detObjective {
	return &detObjective{
		supports: levels(0.01, 0.2, 20),
		confs:    levels(0.1, 0.9, 9),
		optSup:   0.05,
		optConf:  0.5,
	}
}

// TestBatchedMatchesSequential is the strategy-level determinism
// contract: a batch-capable objective must produce bit-identical Best
// and Trace to plain sequential evaluation, for every strategy that
// batches.
func TestBatchedMatchesSequential(t *testing.T) {
	strategies := map[string]strategy{
		"walk":        ThresholdWalk{Epsilon: -1},
		"walk-budget": ThresholdWalk{MaxEvals: 17, Patience: 100},
		"factorial":   Factorial{Rounds: 8},
		"anneal":      Anneal{Seed: 3, Iterations: 100},
	}
	for name, strat := range strategies {
		t.Run(name, func(t *testing.T) {
			seq, seqErr := strat.Optimize(context.Background(), newDet())
			batched := &batchObjective{inner: newDet()}
			par, parErr := strat.Optimize(context.Background(), batched)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("error mismatch: sequential=%v batched=%v", seqErr, parErr)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("batched result differs from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

func TestWalkUsesBatches(t *testing.T) {
	b := &batchObjective{inner: newDet()}
	if _, err := (ThresholdWalk{Epsilon: -1}).Optimize(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, n := range b.batches {
		if n > max {
			max = n
		}
	}
	if max < 2 {
		t.Errorf("walk never submitted a multi-probe batch: %v", b.batches)
	}
}

func TestBatchedErrorStopsAtFirst(t *testing.T) {
	// The batch path evaluates every probe of a batch even when one
	// fails, but the merged outcome must match sequential first-error
	// semantics: identical trace prefix and identical error.
	mk := func() *detObjective {
		d := newDet()
		// confs[3] survives the walk's MaxConfLevels subsampling (9 → 8
		// drops index 4), so the failure probe is actually reached.
		d.failSup = d.supports[2]
		d.failCnf = d.confs[3]
		return d
	}
	seq, seqErr := ThresholdWalk{Epsilon: -1}.Optimize(context.Background(), mk())
	par, parErr := ThresholdWalk{Epsilon: -1}.Optimize(context.Background(), &batchObjective{inner: mk()})
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected errors, got sequential=%v batched=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error mismatch:\nseq: %v\npar: %v", seqErr, parErr)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("partial result mismatch:\nseq: %+v\npar: %+v", seq, par)
	}
}

// levelError objective: SupportLevels/ConfidenceLevels can fail, and the
// real error must surface (satellite bugfix: previously core swallowed it
// and the optimizer misreported ErrNoThresholds).
type levelErrObjective struct {
	supErr, confErr error
	supports, confs []float64
}

func (l *levelErrObjective) SupportLevels() ([]float64, error) { return l.supports, l.supErr }
func (l *levelErrObjective) ConfidenceLevels(float64) ([]float64, error) {
	return l.confs, l.confErr
}
func (l *levelErrObjective) Evaluate(Probe) ProbeResult {
	return ProbeResult{Cost: 1, NumRules: 1}
}

func TestLevelErrorsPropagate(t *testing.T) {
	sentinel := errors.New("threshold index corrupt")
	strategies := map[string]strategy{
		"walk":      ThresholdWalk{},
		"anneal":    Anneal{Seed: 1},
		"factorial": Factorial{},
	}
	for name, strat := range strategies {
		t.Run(name+"/supports", func(t *testing.T) {
			obj := &levelErrObjective{supErr: sentinel}
			if _, err := strat.Optimize(context.Background(), obj); !errors.Is(err, sentinel) {
				t.Errorf("err = %v, want wrapped sentinel (not ErrNoThresholds)", err)
			}
		})
		t.Run(name+"/confidences", func(t *testing.T) {
			obj := &levelErrObjective{
				supports: []float64{0.1, 0.2},
				confErr:  sentinel,
			}
			if _, err := strat.Optimize(context.Background(), obj); !errors.Is(err, sentinel) {
				t.Errorf("err = %v, want wrapped sentinel (not ErrNoThresholds)", err)
			}
		})
	}
}
