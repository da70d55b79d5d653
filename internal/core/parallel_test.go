package core

import (
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"arcs/internal/engine"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
)

// stripCache zeroes the fields that legitimately differ between a cached
// and an uncached run — cache stats (aggregate, per-step and in the
// provenance summary) and wall-clock phase timings — leaving everything
// the search and pipeline produced.
func stripCache(r *Result) *Result {
	c := *r
	c.Cache = CacheStats{}
	c.Phases = nil
	c.Provenance.CacheHits = 0
	c.Trace = append([]optimizer.Step(nil), r.Trace...)
	for i := range c.Trace {
		c.Trace[i].CacheHit = false
	}
	return &c
}

// TestParallelSearchMatchesSequential is the probe pool's determinism
// contract at the system level. At 64 bins the grid is at the pool's
// floor, so with four Ps the walk's and the factorial's batches fan out
// across workers and merge back in probe order. Anneal submits one
// probe at a time and revisits states, so its case holds the cache's
// answers to the pipeline. Every trace step must carry the cost and
// rule count that the uncached pipeline, evaluateProbe, computes at its
// thresholds, and the final rules must be MineAt's at the chosen
// thresholds.
func TestParallelSearchMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	searches := map[string]Config{
		"walk": {Search: SearchWalk,
			Walk: walkBudget()},
		"anneal": {Search: SearchAnneal,
			Anneal: annealBudget()},
		"factorial": {Search: SearchFactorial,
			Factorial: factorialBudget()},
	}
	for name, cfg := range searches {
		t.Run(name, func(t *testing.T) {
			sink := &obs.MemSink{}
			cfg.NumBins = 64
			cfg.Observer = obs.New(sink)
			sys := f2System(t, 8_000, 0.05, cfg)
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}

			pooled := false
			for _, b := range sink.Spans("probe-batch") {
				if w, _ := strconv.Atoi(b.Attr("workers")); w > 1 {
					pooled = true
				}
			}
			if name == "anneal" {
				if res.Cache.Hits == 0 {
					t.Error("anneal revisited no state, so no step came from the cache")
				}
			} else if !pooled {
				t.Error("no probe batch ran on more than one worker")
			}

			seg, err := sys.segCode(synth.GroupA)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range res.Trace {
				cost, n, err := sys.evaluateProbe(obs.Span{}, seg, st.Support, st.Confidence)
				if err != nil {
					t.Fatal(err)
				}
				if st.Cost != cost || st.NumRules != n {
					t.Errorf("step %d at (%g, %g): cost %g with %d rules, the pipeline gives %g with %d",
						i, st.Support, st.Confidence, st.Cost, st.NumRules, cost, n)
				}
			}
			want, err := sys.MineAt(res.MinSupport, res.MinConfidence)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rules, want) {
				t.Errorf("final rules differ from MineAt at (%g, %g):\ngot:  %v\nwant: %v",
					res.MinSupport, res.MinConfidence, res.Rules, want)
			}
		})
	}
}

func annealBudget() optimizer.Anneal {
	return optimizer.Anneal{Seed: 5, Iterations: 40}
}

func factorialBudget() optimizer.Factorial {
	return optimizer.Factorial{Rounds: 5}
}

// TestProbeCacheAcrossRuns: repeating a run on the same System must be
// answered entirely from the cache, with an identical Result.
func TestProbeCacheAcrossRuns(t *testing.T) {
	sys := f2System(t, 8_000, 0.05, Config{NumBins: 20, Search: SearchWalk, Walk: walkBudget()})
	first, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.Misses == 0 || first.Cache.Hits != 0 {
		t.Errorf("first run cache stats = %+v, want all misses", first.Cache)
	}
	second, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache.Misses != 0 || second.Cache.Hits != second.Evaluations {
		t.Errorf("second run cache stats = %+v over %d evaluations, want all hits",
			second.Cache, second.Evaluations)
	}
	if !reflect.DeepEqual(stripCache(first), stripCache(second)) {
		t.Error("cached re-run differs from the original")
	}

	// After a reset the same probes must recompute to the same values.
	sys.ResetProbeCache()
	third, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if third.Cache.Misses == 0 {
		t.Errorf("post-reset run cache stats = %+v, want misses", third.Cache)
	}
	if !reflect.DeepEqual(stripCache(first), stripCache(third)) {
		t.Error("post-reset re-run differs from the original")
	}
}

// TestCacheCountsMatchTrace holds every count of a run's cache hits to
// its trace. For each strategy, a cold and then a warm run on one
// System must report, in Result.Cache, Provenance.CacheHits and the
// observer's probe_cache_hits_total and probe_cache_misses_total
// counters, the hits that the steps marked CacheHit make, and every
// other step as a miss. Anneal's single probes revisit states, so its
// cold run has hits too.
func TestCacheCountsMatchTrace(t *testing.T) {
	searches := map[string]Config{
		"walk":      {Search: SearchWalk, Walk: walkBudget()},
		"anneal":    {Search: SearchAnneal, Anneal: optimizer.Anneal{Seed: 5, Iterations: 200}},
		"factorial": {Search: SearchFactorial, Factorial: factorialBudget()},
		"fixed":     {Search: SearchFixed, FixedMinSupport: 0.0001, FixedMinConfidence: 0.39},
	}
	for name, cfg := range searches {
		t.Run(name, func(t *testing.T) {
			cfg.NumBins = 20
			cfg.Observer = obs.New(nil)
			sys := f2System(t, 8_000, 0.05, cfg)
			reg := cfg.Observer.Registry()
			var hitsBefore, missesBefore int64
			for _, run := range []string{"cold", "warm"} {
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				hits := 0
				for _, st := range res.Trace {
					if st.CacheHit {
						hits++
					}
				}
				if res.Cache.Hits != hits || res.Provenance.CacheHits != hits ||
					res.Cache.Hits+res.Cache.Misses != len(res.Trace) {
					t.Errorf("%s run: Cache %+v, Provenance.CacheHits %d; the trace has %d steps, %d of them hits",
						run, res.Cache, res.Provenance.CacheHits, len(res.Trace), hits)
				}
				hitsNow := reg.Counter("probe_cache_hits_total").Value()
				missesNow := reg.Counter("probe_cache_misses_total").Value()
				if hitsNow-hitsBefore != int64(res.Cache.Hits) || missesNow-missesBefore != int64(res.Cache.Misses) {
					t.Errorf("%s run: the registry counted %d hits and %d misses, Result.Cache is %+v",
						run, hitsNow-hitsBefore, missesNow-missesBefore, res.Cache)
				}
				hitsBefore, missesBefore = hitsNow, missesNow
				switch {
				case run == "warm" && res.Cache.Misses != 0:
					t.Errorf("warm run missed %d probes", res.Cache.Misses)
				case run == "cold" && name == "anneal" && res.Cache.Hits == 0:
					t.Error("cold anneal run revisited no state")
				}
			}
		})
	}
}

// TestProbeCacheConcurrentStress hammers the single-flight probe cache:
// SegmentAll (one goroutine per criterion value) racing additional
// RunValue goroutines for the same values, on one shared System. Run
// under -race in CI; also asserts every path returns the same results.
func TestProbeCacheConcurrentStress(t *testing.T) {
	cfg := Config{NumBins: 15, Search: SearchWalk,
		Walk: walkBudget()}
	cfg.Observer = obs.New(nil)
	sys := f2System(t, 6_000, 0.05, cfg)
	labels := []string{synth.GroupA, synth.GroupOther}

	// Reference results computed alone, on an identical System.
	refCfg := cfg
	refCfg.Observer = obs.New(nil)
	refSys := f2System(t, 6_000, 0.05, refCfg)
	refs := make(map[string]*Result, len(labels))
	for _, l := range labels {
		r, err := refSys.RunValue(l)
		if err != nil {
			t.Fatal(err)
		}
		refs[l] = r
	}

	const runsPerLabel = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	check := func(l string, res *Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failures = append(failures, err.Error())
			return
		}
		if !reflect.DeepEqual(stripCache(refs[l]), stripCache(res)) {
			failures = append(failures, "result for "+l+" differs across concurrent runs")
		}
	}
	for i := 0; i < runsPerLabel; i++ {
		for _, l := range labels {
			wg.Add(1)
			go func(l string) {
				defer wg.Done()
				res, err := sys.RunValue(l)
				check(l, res, err)
			}(l)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			all, err := sys.SegmentAll()
			if err != nil {
				mu.Lock()
				failures = append(failures, err.Error())
				mu.Unlock()
				return
			}
			for _, l := range labels {
				check(l, all[l], nil)
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}

	// Every probe beyond the first computation of each key must have hit
	// the cache: exactly one miss per distinct probe across the storm.
	reg, refReg := cfg.Observer.Registry(), refCfg.Observer.Registry()
	if hits := reg.Counter("probe_cache_hits_total").Value(); hits == 0 {
		t.Error("concurrent stress produced no cache hits")
	}
	misses := reg.Counter("probe_cache_misses_total").Value()
	if ref := refReg.Counter("probe_cache_misses_total").Value(); misses != ref {
		t.Errorf("distinct probes computed = %d, solo reference computed %d", misses, ref)
	}
}

// TestBatchDispatchAdaptive pins the grid-cost floor for probe-pool
// dispatch: a small grid evaluates batches inline (one worker — pool
// handoff costs more than a cheap probe), while a grid at or above
// poolDispatchMinCells cells fans out to GOMAXPROCS workers.
func TestBatchDispatchAdaptive(t *testing.T) {
	small := f2System(t, 2_000, 0, Config{NumBins: 20, Walk: walkBudget()})
	obj, err := small.objective(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*segObjective).batchWorkers(8); got != 1 {
		t.Errorf("20×20 grid batch workers = %d, want 1 (inline, below pool floor)", got)
	}

	big := f2System(t, 2_000, 0, Config{NumBins: 64, Walk: walkBudget()})
	obj, err = big.objective(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	if want > 8 {
		want = 8
	}
	if got := obj.(*segObjective).batchWorkers(8); got != want {
		t.Errorf("64×64 grid batch workers = %d, want %d", got, want)
	}
}

// TestThresholdsForBuildsOnce: goroutines asking a fresh System for the
// same criterion value's index at once get one index, built once (one
// thresholds span per value), and each value's build runs outside the
// lock the others take.
func TestThresholdsForBuildsOnce(t *testing.T) {
	sink := &obs.MemSink{}
	sys := f2System(t, 6_000, 0, Config{NumBins: 20, Observer: obs.New(sink)})
	nseg := sys.Counts().NSeg()
	const perSeg = 8
	got := make([][]*engine.Thresholds, nseg)
	var wg sync.WaitGroup
	for seg := 0; seg < nseg; seg++ {
		got[seg] = make([]*engine.Thresholds, perSeg)
		for i := 0; i < perSeg; i++ {
			wg.Add(1)
			go func(seg, i int) {
				defer wg.Done()
				th, err := sys.thresholdsFor(seg)
				if err != nil {
					t.Error(err)
					return
				}
				got[seg][i] = th
			}(seg, i)
		}
	}
	wg.Wait()
	for seg := range got {
		for i := range got[seg] {
			if got[seg][i] != got[seg][0] {
				t.Errorf("value %d: caller %d got another index than caller 0", seg, i)
			}
		}
	}
	if spans := sink.Spans("thresholds"); len(spans) != nseg {
		t.Errorf("%d thresholds spans, want one per criterion value (%d)", len(spans), nseg)
	}
}
