package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"arcs/internal/dataset"
	"arcs/internal/faultinject"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
)

// f2Source builds the Function 2 generator the chaos tests wound.
func f2Source(t *testing.T, n int) dataset.Source {
	t.Helper()
	return synthSource(t, synth.Config{
		Function: 2, N: n, Seed: 42,
		Perturbation: 0.05, OutlierFraction: 0.05, FracA: 0.4,
	})
}

// chaosConfig is the chaos tests' System config. Its 20-bin grid is
// under the probe pool's floor, so every probe batch runs inline, and
// on a fresh System a cold walk misses the probe cache on every probe,
// so a ProbeHook fires on every probe, in order: the hook's nth call is
// the walk's nth probe.
func chaosConfig() Config {
	return Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: 20,
	}
}

// runDegraded builds a System whose search cancels itself at the start
// of probe cancelAt, runs it, and returns the degraded outcome plus the
// metrics registry.
func runDegraded(t *testing.T, cancelAt int) (*Result, error, *obs.Registry) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := chaosConfig()
	// chaosConfig makes the cancellation cut point exact: the hook fires
	// on the cancelAt-th probe, every earlier probe has settled, every
	// later probe is refused.
	cfg.ProbeHook = faultinject.CancelOnProbe(cancelAt, cancel)
	cfg.Observer = obs.New(&obs.MemSink{})
	sys, err := New(f2Source(t, 8_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := sys.RunValueContext(ctx, synth.GroupA)
	return res, rerr, cfg.Observer.Registry()
}

func TestChaosCancelMidSearchDegradesToBestSoFar(t *testing.T) {
	res, err, reg := runDegraded(t, 5)
	if err == nil {
		t.Fatal("canceled search returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	re := AsRunError(err)
	if re == nil || re.Phase != "search" || !re.Partial {
		t.Fatalf("error %v is not a partial search RunError", err)
	}
	if res == nil || !res.Degraded {
		t.Fatalf("result %+v is not a degraded partial result", res)
	}
	if len(res.Rules) == 0 {
		t.Fatal("degraded result carries no best-so-far rules")
	}
	if res.Evaluations == 0 || res.Evaluations >= 6 {
		t.Fatalf("evaluations = %d, want 1..5 (cut at probe 5)", res.Evaluations)
	}
	if got := reg.Counter("runs_degraded_total").Value(); got != 1 {
		t.Fatalf("runs_degraded_total = %d, want 1", got)
	}
}

func TestChaosDegradedResultIsDeterministic(t *testing.T) {
	first, ferr, _ := runDegraded(t, 4)
	second, serr, _ := runDegraded(t, 4)
	if ferr == nil || serr == nil {
		t.Fatal("expected both canceled runs to report the cancellation")
	}
	if first == nil || second == nil {
		t.Fatal("expected both canceled runs to return degraded results")
	}
	if first.MinSupport != second.MinSupport || first.MinConfidence != second.MinConfidence {
		t.Fatalf("thresholds differ across identical canceled runs: (%g,%g) vs (%g,%g)",
			first.MinSupport, first.MinConfidence, second.MinSupport, second.MinConfidence)
	}
	if len(first.Rules) != len(second.Rules) {
		t.Fatalf("rule counts differ: %d vs %d", len(first.Rules), len(second.Rules))
	}
	for i := range first.Rules {
		if first.Rules[i].String() != second.Rules[i].String() {
			t.Fatalf("rule %d differs: %s vs %s", i, first.Rules[i], second.Rules[i])
		}
	}
}

func TestChaosCancelBeforeFirstProbeFailsOutright(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := f2System(t, 2_000, 0, Config{NumBins: 20})
	res, err := sys.RunValueContext(ctx, synth.GroupA)
	if res != nil {
		t.Fatalf("pre-canceled run returned a result: %+v", res)
	}
	re := AsRunError(err)
	if re == nil || re.Phase != "search" || re.Partial {
		t.Fatalf("error %v is not a non-partial search RunError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

func TestChaosNewContextCancelReturnsNoSystem(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys, err := NewContext(ctx, f2Source(t, 2_000), chaosConfig())
	if sys != nil {
		t.Fatal("canceled initialization returned a System")
	}
	re := AsRunError(err)
	if re == nil || re.Phase != "init" || re.Partial {
		t.Fatalf("error %v is not a non-partial init RunError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

func TestChaosProbePanicFailsOnlyThatProbe(t *testing.T) {
	cfg := chaosConfig()
	cfg.ProbeHook = faultinject.PanicOnProbe(3)
	cfg.Observer = obs.New(&obs.MemSink{})
	sys, err := New(f2Source(t, 8_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run with one panicking probe failed outright: %v", err)
	}
	if res.Degraded {
		t.Fatal("panic-isolated run reported Degraded")
	}
	if res.FailedProbes != 1 {
		t.Fatalf("FailedProbes = %d, want exactly 1", res.FailedProbes)
	}
	if len(res.Rules) == 0 {
		t.Fatal("run with one failed probe produced no rules")
	}
	var failedSteps int
	for _, st := range res.Trace {
		if st.Reason == optimizer.ReasonProbeFailed {
			failedSteps++
		}
	}
	if failedSteps != 1 {
		t.Fatalf("trace records %d failed probes, want 1", failedSteps)
	}
	if got := cfg.Observer.Registry().Counter("probe_panics_recovered_total").Value(); got != 1 {
		t.Fatalf("probe_panics_recovered_total = %d, want 1", got)
	}
}

func TestChaosAllProbesPanickingFailsRun(t *testing.T) {
	cfg := chaosConfig()
	cfg.ProbeHook = func(int, float64, float64) { panic("chaos: scripted") }
	sys, err := New(f2Source(t, 4_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every probe panics, so the search measures nothing and must
	// surface the failure rather than mining at zero-value thresholds.
	res, rerr := sys.Run()
	if rerr == nil {
		t.Fatalf("all-probes-panicking run succeeded: %+v", res)
	}
	if !errors.Is(rerr, optimizer.ErrProbeFailed) {
		t.Fatalf("error %v does not unwrap to ErrProbeFailed", rerr)
	}
	// Crucially it must NOT look like "this group admits no rules", or
	// SegmentAll would swallow it into an empty per-group result.
	if errors.Is(rerr, optimizer.ErrNoThresholds) {
		t.Fatalf("error %v is classified as ErrNoThresholds", rerr)
	}
}

func TestChaosDirtyRowsAreQuarantined(t *testing.T) {
	// ~1% of rows replaced with row-scoped errors; the resilient wrapper
	// quarantines them and the pipeline still finds the segmentation.
	faulty := faultinject.Wrap(f2Source(t, 10_000), faultinject.Schedule{
		Seed: 7, RowErrorProb: 0.01, TransientEvery: 997,
	})
	r := dataset.NewResilient(faulty,
		dataset.Retry{Max: 3, Sleep: func(time.Duration) {}},
		dataset.Quarantine{MaxBadRows: -1})
	sys, err := New(r, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run over dirty source failed: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("run over dirty source produced no rules")
	}
	st := r.Stats()
	if st.Quarantined["injected"] == 0 {
		t.Fatal("no rows were quarantined despite 1% injection")
	}
	if st.Retries == 0 {
		t.Fatal("no transient retries despite injected transient errors")
	}
}

func TestChaosStrictQuarantineBudgetFails(t *testing.T) {
	faulty := faultinject.Wrap(f2Source(t, 5_000), faultinject.Schedule{RowErrorEvery: 100})
	r := dataset.NewResilient(faulty, dataset.Retry{}, dataset.Quarantine{MaxBadRows: 3})
	_, err := New(r, chaosConfig())
	if !errors.Is(err, dataset.ErrTooManyBadRows) {
		t.Fatalf("error %v does not unwrap to ErrTooManyBadRows", err)
	}
}

func TestChaosSegmentAllContextKeepsCompletedValues(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := f2System(t, 2_000, 0, Config{NumBins: 20})
	out, err := sys.SegmentAllContext(ctx)
	re := AsRunError(err)
	if re == nil || re.Phase != "segment-all" {
		t.Fatalf("error %v is not a segment-all RunError", err)
	}
	if re.Partial != (len(out) > 0) {
		t.Fatalf("Partial=%v disagrees with %d returned results", re.Partial, len(out))
	}
	// An uncanceled SegmentAllContext behaves exactly like SegmentAll.
	out, err = sys.SegmentAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("background SegmentAllContext returned no results")
	}
}

func TestChaosCancelLeaksNoGoroutines(t *testing.T) {
	// Warm up once so lazily started runtime helpers do not count as
	// leaks, then run a parallel-batch search that gets canceled
	// mid-flight and verify the goroutine count settles back.
	{
		sys := f2System(t, 2_000, 0, Config{NumBins: 20})
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := chaosConfig()
	cfg.ProbeHook = faultinject.CancelOnProbe(2, cancel)
	sys, err := New(f2Source(t, 8_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sys.RunValueContext(ctx, synth.GroupA)

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d; stacks:\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestChaosDeadlineExpiryDegrades(t *testing.T) {
	// A real deadline (not a scripted hook) must produce the same
	// degraded contract. The latency injection stretches the binning
	// pass enough that the search phase hits the deadline on any
	// hardware; if the deadline instead lands during init, that is a
	// legitimate non-partial outcome and the test accepts both shapes.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	src := faultinject.Wrap(f2Source(t, 8_000), faultinject.Schedule{
		Latency: 10 * time.Microsecond,
	})
	sys, err := NewContext(ctx, src, chaosConfig())
	if err != nil {
		re := AsRunError(err)
		if re == nil || re.Phase != "init" {
			t.Fatalf("init error %v is not an init RunError", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v does not unwrap to DeadlineExceeded", err)
		}
		return
	}
	res, err := sys.RunValueContext(ctx, synth.GroupA)
	if err == nil {
		// The run beat the deadline — nothing to assert, but note it so
		// a systematically-too-generous deadline is visible in -v runs.
		t.Log("run completed before the deadline; degraded path not exercised")
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to DeadlineExceeded", err)
	}
	if re := AsRunError(err); re == nil {
		t.Fatalf("error %v is not a RunError", err)
	} else if re.Partial != (res != nil) {
		t.Fatalf("Partial=%v but result=%v", re.Partial, res != nil)
	}
}

// errorReason exercises fmt verbs on the error types so the chaos suite
// locks in their rendered shapes.
func TestChaosErrorRendering(t *testing.T) {
	re := &RunError{Phase: "search", Err: context.Canceled, Partial: true}
	want := "core: search: context canceled (partial result available)"
	if re.Error() != want {
		t.Fatalf("RunError renders %q, want %q", re.Error(), want)
	}
	pe := &PanicError{Phase: "probe", Value: "boom", Stack: []byte("stack")}
	if got := fmt.Sprint(pe); got != "core: recovered panic in probe: boom" {
		t.Fatalf("PanicError renders %q", got)
	}
	if !errors.Is(pe, optimizer.ErrProbeFailed) {
		t.Fatal("PanicError does not unwrap to ErrProbeFailed")
	}
}
