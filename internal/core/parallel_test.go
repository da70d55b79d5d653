package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

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

// TestParallelSearchMatchesSequential is the tentpole determinism
// contract at the system level: for every search strategy, the batched,
// cached, worker-pool path must return bit-identical Best thresholds,
// Cost, Trace, and final Rules to the serial, uncached path.
func TestParallelSearchMatchesSequential(t *testing.T) {
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
			serialCfg := cfg
			serialCfg.NumBins = 20
			serialCfg.SerialSearch = true
			serialCfg.DisableProbeCache = true
			seq := f2System(t, 8_000, 0.05, serialCfg)
			seqRes, err := seq.Run()
			if err != nil {
				t.Fatal(err)
			}

			parCfg := cfg
			parCfg.NumBins = 20
			par := f2System(t, 8_000, 0.05, parCfg)
			parRes, err := par.Run()
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(stripCache(seqRes), stripCache(parRes)) {
				t.Errorf("parallel result differs from sequential:\nseq: %+v\npar: %+v", seqRes, parRes)
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
	if got := sys.ProbeCacheStats(); got.Probes() != first.Cache.Probes()+second.Cache.Probes() {
		t.Errorf("system stats %+v do not aggregate run stats %+v + %+v", got, first.Cache, second.Cache)
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

// TestProbeCacheConcurrentStress hammers the single-flight probe cache:
// SegmentAll (one goroutine per criterion value) racing additional
// RunValue goroutines for the same values, on one shared System. Run
// under -race in CI; also asserts every path returns the same results.
func TestProbeCacheConcurrentStress(t *testing.T) {
	cfg := Config{NumBins: 15, Search: SearchWalk,
		Walk: walkBudget()}
	sys := f2System(t, 6_000, 0.05, cfg)
	labels := []string{synth.GroupA, synth.GroupOther}

	// Reference results computed alone, on an identical System.
	refSys := f2System(t, 6_000, 0.05, cfg)
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
	st := sys.ProbeCacheStats()
	if st.Hits == 0 {
		t.Errorf("concurrent stress produced no cache hits: %+v", st)
	}
	ref := refSys.ProbeCacheStats()
	if st.Misses != ref.Misses {
		t.Errorf("distinct probes computed = %d, solo reference computed %d", st.Misses, ref.Misses)
	}
}

// TestBatchDispatchAdaptive pins the grid-cost floor for probe-pool
// dispatch: a small grid evaluates batches inline (one worker — pool
// handoff costs more than a cheap probe), while a grid at or above
// poolDispatchMinCells cells fans out to GOMAXPROCS workers.
func TestBatchDispatchAdaptive(t *testing.T) {
	small := f2System(t, 2_000, 0, Config{NumBins: 20, Walk: walkBudget()})
	obj, err := small.Objective(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*segObjective).batchWorkers(8); got != 1 {
		t.Errorf("20×20 grid batch workers = %d, want 1 (inline, below pool floor)", got)
	}

	big := f2System(t, 2_000, 0, Config{NumBins: 64, Walk: walkBudget()})
	obj, err = big.Objective(synth.GroupA)
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

	serial := f2System(t, 2_000, 0, Config{NumBins: 64, Walk: walkBudget(), SerialSearch: true})
	obj, err = serial.Objective(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*segObjective).batchWorkers(8); got != 1 {
		t.Errorf("SerialSearch batch workers = %d, want 1", got)
	}
}
