package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// faultyObjective wraps quadObjective, failing chosen evaluations with
// an isolated probe failure and optionally canceling a context after a
// set number of evaluations.
type faultyObjective struct {
	*quadObjective
	probeFailAt map[int]bool // evaluation numbers that fail isolated
	cancelAfter int          // evaluations before cancel fires; 0 = never
	cancel      context.CancelFunc
}

func (f *faultyObjective) Evaluate(p Probe) ProbeResult {
	next := f.evals + 1
	if f.probeFailAt[next] {
		f.evals++
		return ProbeResult{Err: fmt.Errorf("%w: injected crash at eval %d", ErrProbeFailed, next)}
	}
	if f.cancelAfter > 0 && next > f.cancelAfter {
		f.cancel()
		return ProbeResult{Err: context.Canceled}
	}
	return f.quadObjective.Evaluate(p)
}

func TestWalkSkipsFailedProbes(t *testing.T) {
	clean, err := (ThresholdWalk{Epsilon: -1}).Optimize(context.Background(), newQuad())
	if err != nil {
		t.Fatal(err)
	}
	f := &faultyObjective{quadObjective: newQuad(), probeFailAt: map[int]bool{2: true, 5: true}}
	best, err := (ThresholdWalk{Epsilon: -1}).Optimize(context.Background(), f)
	if err != nil {
		t.Fatalf("isolated probe failures aborted the walk: %v", err)
	}
	if best.Failures != 2 {
		t.Errorf("Failures = %d, want 2", best.Failures)
	}
	failed := 0
	for _, s := range best.Trace {
		if s.Reason == ReasonProbeFailed {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("trace has %d probe-failed steps, want 2", failed)
	}
	// Losing two probes must not change the optimum the walk converges to
	// (the bowl is smooth and densely probed).
	if math.Abs(best.Support-clean.Support) > 0.05 {
		t.Errorf("support drifted after probe failures: %g vs %g", best.Support, clean.Support)
	}
}

func TestWalkCancelReturnsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &faultyObjective{quadObjective: newQuad(), cancelAfter: 12, cancel: cancel}
	best, err := (ThresholdWalk{Epsilon: -1}).Optimize(ctx, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if best.Evaluations == 0 || math.IsInf(best.Cost, 1) {
		t.Errorf("cancellation discarded the incumbent best: %+v", best)
	}
	if best.Evaluations > 12 {
		t.Errorf("walk kept probing after cancel: %d evaluations", best.Evaluations)
	}
}

func TestWalkPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	best, err := (ThresholdWalk{}).Optimize(ctx, newQuad())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if best.Evaluations != 0 {
		t.Errorf("pre-canceled walk evaluated %d probes", best.Evaluations)
	}
}

func TestAnnealSkipsFailedProbes(t *testing.T) {
	f := &faultyObjective{quadObjective: newQuad(), probeFailAt: map[int]bool{1: true, 7: true}}
	best, err := (Anneal{Seed: 1, Iterations: 60}).Optimize(context.Background(), f)
	if err != nil {
		t.Fatalf("isolated probe failures aborted annealing: %v", err)
	}
	if best.Failures != 2 {
		t.Errorf("Failures = %d, want 2", best.Failures)
	}
	if math.IsInf(best.Cost, 1) {
		t.Error("annealing found nothing despite only 2 failed probes")
	}
}

func TestAnnealCancelMidChain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &faultyObjective{quadObjective: newQuad(), cancelAfter: 10, cancel: cancel}
	best, err := (Anneal{Seed: 1, Iterations: 200}).Optimize(ctx, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if best.Evaluations == 0 || best.Evaluations > 11 {
		t.Errorf("evaluations after cancel = %d", best.Evaluations)
	}
}

func TestFatalErrorsStillAbort(t *testing.T) {
	q := newQuad()
	q.failAt = 4
	if _, err := (ThresholdWalk{}).Optimize(context.Background(), q); err == nil || IsProbeFailure(err) {
		t.Errorf("fatal objective error mishandled: %v", err)
	}
}
