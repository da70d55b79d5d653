package core

import (
	"sync"
	"sync/atomic"

	"arcs/internal/obs"
	"arcs/internal/optimizer"
)

// probeKey identifies one threshold probe. Support and confidence are
// used verbatim: the optimizer probes exact threshold-list values, which
// are bit-stable across repeats.
type probeKey struct {
	seg       int
	sup, conf float64
}

type probeEntry struct {
	once sync.Once
	// ready flips after once completes. The hit path checks it before
	// touching once so no compute closure is ever constructed for a
	// settled entry — keeping warm probes at zero allocations.
	ready atomic.Bool
	res   optimizer.ProbeResult
}

// probeCache memoizes threshold evaluations per (criterion code,
// support, confidence) with single-flight semantics: when several
// goroutines (batched walk probes, concurrent SegmentAll runs, Anneal
// revisits) request the same probe, exactly one executes the pipeline
// and the rest block on its sync.Once and share the result. Memoization
// is sound because evaluateProbe is a pure function of the key for a
// fixed System: it only reads the immutable BinArray, sample, and
// verification index with its draws.
type probeCache struct {
	mu      sync.Mutex
	entries map[probeKey]*probeEntry

	// onHit/onMiss count hits and misses in the observer's metrics
	// registry when one is attached. They stay nil otherwise;
	// obs.Counter methods are nil-safe, so the hot path never branches
	// on observability.
	onHit, onMiss *obs.Counter
}

func newProbeCache() *probeCache {
	return &probeCache{entries: make(map[probeKey]*probeEntry)}
}

// do returns the memoized evaluation for key, computing it at most once
// across all concurrent callers via s.safeEvaluateProbe. Its CacheHit
// reports whether an entry already existed (possibly still in flight)
// when this caller arrived. Taking the System and span instead of a
// closure keeps the warm-hit path allocation-free: the compute closure
// is only built for entries that are not settled yet.
//
// Failed evaluations are never memoized: a failure (a recovered panic,
// say) settles the entry for the waiters that already joined it (they
// share the error), but the entry is then dropped so the next request
// recomputes instead of replaying a stale failure forever.
//
// The panic recovery sits INSIDE the compute call (safeEvaluateProbe):
// sync.Once marks itself done even when its function panics, so a
// recover outside the closure would leave a half-written entry that
// every waiter reads as a silent zero-cost success.
func (c *probeCache) do(s *System, parent obs.Span, key probeKey) optimizer.ProbeResult {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &probeEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if !e.ready.Load() {
		e.once.Do(func() {
			e.res = s.safeEvaluateProbe(parent, key.seg, key.sup, key.conf)
			e.ready.Store(true)
		})
		if e.res.Err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
	}
	if ok {
		c.onHit.Inc()
	} else {
		c.onMiss.Inc()
	}
	r := e.res
	r.CacheHit = ok
	return r
}

// reset drops all memoized probes (after Extend, or for cold-cache
// benchmarking). The observer's cache counters are cumulative and
// survive resets.
func (c *probeCache) reset() {
	c.mu.Lock()
	c.entries = make(map[probeKey]*probeEntry)
	c.mu.Unlock()
}
