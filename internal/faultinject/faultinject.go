// Package faultinject provides deterministic fault injection for chaos
// testing the ARCS pipeline. A Source wraps any dataset.Source and
// injects faults on a seeded, repeatable schedule: row-scoped errors
// (exercising quarantine), transient errors (exercising retry), added
// latency, early EOF truncation, and scripted panics. Separate helpers
// build probe hooks for core.Config.ProbeHook — panicking or canceling
// at a chosen call — so searches can be wounded at exact, reproducible
// points.
//
// Everything here is test machinery: production configs never reference
// this package.
package faultinject

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"arcs/internal/dataset"
)

// Schedule decides which faults fire and when. Counters are per pass
// (Reset starts a fresh pass with an identically re-seeded RNG), so a
// wrapped source misbehaves identically on every pass — the property
// that makes chaos tests assert exact outcomes instead of flakes.
type Schedule struct {
	// Seed drives the probabilistic faults; equal seeds replay the same
	// fault positions.
	Seed int64

	// RowErrorEvery, when n > 0, replaces every nth otherwise-good row
	// with a *dataset.RowError (reason "injected") and consumes the row.
	RowErrorEvery int
	// RowErrorProb, when > 0, additionally converts each good row to a
	// *dataset.RowError with this probability (seeded).
	RowErrorProb float64

	// TransientEvery, when n > 0, makes every nth Next call fail first
	// with a retryable *TransientError before yielding its row.
	TransientEvery int
	// TransientFailures is how many consecutive transient failures each
	// such event produces (default 1).
	TransientFailures int

	// Latency, when positive, is slept before each affected call;
	// LatencyEvery selects every nth call (0 means every call).
	Latency      time.Duration
	LatencyEvery int

	// TruncateAfter, when n > 0, ends each pass with io.EOF after n rows
	// even if the wrapped source has more.
	TruncateAfter int

	// PanicAtRow, when n > 0, panics when the nth row of a pass is
	// requested — simulating a corrupted-state crash inside streaming.
	PanicAtRow int
}

// Stats counts the faults injected so far, across passes.
type Stats struct {
	RowErrors  int64
	Transients int64
	Latencies  int64
	Truncated  int64
}

// Source is a dataset.Source that injects the configured faults. Like
// the sources it wraps, it is not safe for concurrent use.
type Source struct {
	src dataset.Source
	sch Schedule
	rng *rand.Rand

	calls     int // Next calls this pass
	rows      int // good rows yielded this pass
	transLeft int // remaining failures of the active transient event

	stats Stats
}

// TransientError is the injected retryable failure; dataset.IsTransient
// reports true for it, so a Resilient wrapper retries it.
type TransientError struct {
	// Call is the per-pass Next call the failure was injected into.
	Call int
}

// Error describes the injection point.
func (e *TransientError) Error() string {
	return fmt.Sprintf("faultinject: transient failure at call %d", e.Call)
}

// Transient marks the error as retryable.
func (e *TransientError) Transient() bool { return true }

// Wrap wraps src with the fault schedule.
func Wrap(src dataset.Source, sch Schedule) *Source {
	if sch.TransientFailures <= 0 {
		sch.TransientFailures = 1
	}
	return &Source{src: src, sch: sch, rng: rand.New(rand.NewSource(sch.Seed))}
}

// Schema implements dataset.Source.
func (f *Source) Schema() *dataset.Schema { return f.src.Schema() }

// Stats reports the faults injected so far.
func (f *Source) Stats() Stats { return f.stats }

// Reset implements dataset.Source, restarting the fault schedule so the
// next pass replays the same faults at the same positions.
func (f *Source) Reset() error {
	f.calls, f.rows, f.transLeft = 0, 0, 0
	f.rng = rand.New(rand.NewSource(f.sch.Seed))
	return f.src.Reset()
}

// Close forwards to the wrapped source when it is closeable.
func (f *Source) Close() error {
	if c, ok := f.src.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Next implements dataset.Source with the schedule applied.
func (f *Source) Next() (dataset.Tuple, error) {
	f.calls++
	if f.sch.Latency > 0 && (f.sch.LatencyEvery <= 1 || f.calls%f.sch.LatencyEvery == 0) {
		f.stats.Latencies++
		time.Sleep(f.sch.Latency)
	}
	if f.transLeft > 0 {
		f.transLeft--
		f.stats.Transients++
		return nil, &TransientError{Call: f.calls}
	}
	if n := f.sch.TransientEvery; n > 0 && f.calls%n == 0 {
		f.transLeft = f.sch.TransientFailures - 1
		f.stats.Transients++
		return nil, &TransientError{Call: f.calls}
	}
	if n := f.sch.TruncateAfter; n > 0 && f.rows >= n {
		f.stats.Truncated++
		return nil, io.EOF
	}
	if n := f.sch.PanicAtRow; n > 0 && f.rows+1 == n {
		panic(fmt.Sprintf("faultinject: scripted panic at row %d", n))
	}
	t, err := f.src.Next()
	if err != nil {
		return nil, err
	}
	f.rows++
	if (f.sch.RowErrorEvery > 0 && f.rows%f.sch.RowErrorEvery == 0) ||
		(f.sch.RowErrorProb > 0 && f.rng.Float64() < f.sch.RowErrorProb) {
		f.stats.RowErrors++
		return nil, &dataset.RowError{
			Path: "faultinject", Row: f.rows, Reason: "injected",
			Err: fmt.Errorf("scripted row fault"),
		}
	}
	return t, nil
}

// PanicOnProbe returns a core.Config.ProbeHook-shaped function that
// panics on its nth call (1-based), once. Later probes run normally, so
// a test can assert that exactly one probe failed while the search
// completed.
func PanicOnProbe(n int) func(seg int, minSup, minConf float64) {
	var calls atomic.Int64
	return func(seg int, minSup, minConf float64) {
		if calls.Add(1) == int64(n) {
			panic(fmt.Sprintf("faultinject: scripted probe panic at call %d", n))
		}
	}
}

// CancelOnProbe returns a probe hook that calls cancel when the nth
// probe (1-based) begins evaluating — a deterministic mid-search
// cancellation trigger. The hook runs only on probe-cache misses, so the
// cut point is exact and repeatable on a grid under the probe pool's
// floor (its batches run inline) and a fresh System (a cold walk misses
// on every probe).
func CancelOnProbe(n int, cancel context.CancelFunc) func(seg int, minSup, minConf float64) {
	var calls atomic.Int64
	return func(seg int, minSup, minConf float64) {
		if calls.Add(1) == int64(n) {
			cancel()
		}
	}
}
