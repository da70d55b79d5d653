package core

import (
	"testing"

	"arcs/internal/obs"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
)

// TestObsCoreSpansAndMetrics runs the full pipeline with an in-memory
// sink attached and checks the emitted span tree against the taxonomy
// documented in internal/obs, plus the registry counters against the
// run's own cache counts in Provenance.
func TestObsCoreSpansAndMetrics(t *testing.T) {
	sink := &obs.MemSink{}
	observer := obs.New(sink)
	sys := f2System(t, 6_000, 0, Config{
		NumBins: 20, Walk: walkBudget(), Observer: observer,
	})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	one := func(name string) obs.Event {
		t.Helper()
		spans := sink.Spans(name)
		if len(spans) != 1 {
			t.Fatalf("%d %q spans, want exactly 1", len(spans), name)
		}
		return spans[0]
	}

	// System construction: init with its stage children.
	init := one("init")
	for _, name := range []string{"ingest", "binfit", "count", "verify-index"} {
		if sp := one(name); sp.Parent != init.ID {
			t.Errorf("%q span parent = %d, want init span %d", name, sp.Parent, init.ID)
		}
	}
	if got := one("count").Attr("tuples"); got == "" || got == "0" {
		t.Errorf("count span tuples attr = %q, want a positive count", got)
	}
	if got := one("count").Attr("backend"); got != "dense" {
		t.Errorf("count span backend attr = %q, want %q", got, "dense")
	}

	// The run itself: run → search/mine-final/verify-final, with
	// probe-batch → probe → mine/cluster/verify/mdl under search.
	runSpan := one("run")
	if got := runSpan.Attr("crit_value"); got != synth.GroupA {
		t.Errorf("run span crit_value = %q, want %q", got, synth.GroupA)
	}
	search := one("search")
	for _, name := range []string{"search", "mine-final", "verify-final"} {
		if sp := one(name); sp.Parent != runSpan.ID {
			t.Errorf("%q span parent = %d, want run span %d", name, sp.Parent, runSpan.ID)
		}
	}
	batches := sink.Spans("probe-batch")
	if len(batches) == 0 {
		t.Fatal("no probe-batch spans emitted")
	}
	batchIDs := map[uint64]bool{}
	for _, b := range batches {
		if b.Parent != search.ID {
			t.Errorf("probe-batch span parent = %d, want search span %d", b.Parent, search.ID)
		}
		batchIDs[b.ID] = true
	}
	probes := sink.Spans("probe")
	misses := res.Provenance.Probes - res.Provenance.CacheHits
	if len(probes) != misses {
		t.Errorf("%d probe spans, want one per cache miss (%d)", len(probes), misses)
	}
	probeIDs := map[uint64]bool{}
	for _, p := range probes {
		if !batchIDs[p.Parent] {
			t.Errorf("probe span %d parented to %d, not a probe-batch span", p.ID, p.Parent)
		}
		probeIDs[p.ID] = true
	}
	// verify and mdl happen once per probe; mine and cluster additionally
	// run once more under mine-final for the winning thresholds.
	mineFinal := one("mine-final")
	for _, name := range []string{"mine", "cluster", "verify", "mdl"} {
		stages := sink.Spans(name)
		want := len(probes)
		if name == "mine" || name == "cluster" {
			want++
		}
		if len(stages) != want {
			t.Errorf("%d %q spans, want %d", len(stages), name, want)
		}
		for _, sp := range stages {
			if !probeIDs[sp.Parent] && sp.Parent != mineFinal.ID {
				t.Errorf("%q span %d parented to %d, not a probe or mine-final span", name, sp.ID, sp.Parent)
			}
		}
	}

	// Metrics: cache counters mirror the run's cache counts, the verify
	// fast path carried every mined rule, and the probe phase histogram
	// saw one observation per evaluation.
	snap := observer.Registry().Snapshot()
	if got := snap.Counters["probe_cache_misses_total"]; got != int64(misses) {
		t.Errorf("probe_cache_misses_total = %d, want %d", got, misses)
	}
	if got := snap.Counters["probe_cache_hits_total"]; got != int64(res.Provenance.CacheHits) {
		t.Errorf("probe_cache_hits_total = %d, want %d", got, res.Provenance.CacheHits)
	}
	if got := snap.Counters["verify_fastpath_rules_total"]; got == 0 {
		t.Error("verify_fastpath_rules_total = 0, want > 0")
	}
	if got := snap.Histograms["phase_probe_seconds"].Count; got != int64(len(probes)) {
		t.Errorf("phase_probe_seconds count = %d, want %d", got, len(probes))
	}

	// Stage-level metrics lit up by the data-plane instrumentation:
	// BitOp operation accounting, cluster geometry, MDL term breakdown
	// and the bin-phase occupancy scan.
	for _, name := range []string{
		"bitop_and_word_ops_total", "bitop_cmp_word_ops_total",
		"bitop_candidates_total", "bitop_rounds_total",
	} {
		if got := snap.Counters[name]; got <= 0 {
			t.Errorf("%s = %d, want > 0", name, got)
		}
	}
	for _, name := range []string{
		"bin_cell_occupancy", "cluster_rect_area", "cluster_rect_width",
		"cluster_rect_height", "mdl_cluster_term_bits", "mdl_error_term_bits",
	} {
		if got := snap.Histograms[name].Count; got <= 0 {
			t.Errorf("histogram %s count = %d, want > 0", name, got)
		}
	}
	for _, name := range []string{"binarray_mem_bytes", "bin_cells_total"} {
		if got := snap.Gauges[name]; got <= 0 {
			t.Errorf("gauge %s = %d, want > 0", name, got)
		}
	}

	// The binfit span carries the fitted methods; the count span carries
	// the occupancy attributes from the post-build cell scan.
	binfit := one("binfit")
	for _, attr := range []string{"method_x", "method_y"} {
		if binfit.Attr(attr) == "" {
			t.Errorf("binfit span missing %q attr", attr)
		}
	}
	count := one("count")
	for _, attr := range []string{"empty_fraction", "occupied_cells", "mem_bytes"} {
		if count.Attr(attr) == "" {
			t.Errorf("count span missing %q attr", attr)
		}
	}
	// The per-criterion index is built exactly once per segment and
	// announces its support-level count and its footprint.
	th := one("thresholds")
	for _, attr := range []string{"supports", "cells", "bytes"} {
		if v := th.Attr(attr); v == "" || v == "0" {
			t.Errorf("thresholds span %s attr = %q, want a positive count", attr, v)
		}
	}
	// Every cluster span carries the BitOp accounting attrs.
	for _, sp := range sink.Spans("cluster") {
		if sp.Attr("and_word_ops") == "" || sp.Attr("rounds") == "" {
			t.Errorf("cluster span %d missing BitOp accounting attrs", sp.ID)
		}
	}

	// Search provenance: one structured search.probe event per trace
	// step, and the Result summary folds the trace's classifications.
	var probeEvents []obs.Event
	for _, ev := range sink.Events() {
		if ev.Type == obs.EventInstant && ev.Name == "search.probe" {
			probeEvents = append(probeEvents, ev)
		}
	}
	if len(probeEvents) != len(res.Trace) {
		t.Fatalf("%d search.probe events, want one per trace step (%d)", len(probeEvents), len(res.Trace))
	}
	for i, ev := range probeEvents {
		for _, attr := range []string{"support", "confidence", "cost", "rules", "accepted", "reason", "cache_hit"} {
			if ev.Attr(attr) == "" {
				t.Errorf("search.probe event %d missing %q attr", i, attr)
			}
		}
	}
	p := res.Provenance
	if p.Probes != res.Evaluations {
		t.Errorf("Provenance.Probes = %d, want Evaluations %d", p.Probes, res.Evaluations)
	}
	if p.Accepted == 0 {
		t.Error("Provenance.Accepted = 0, want at least the winning probe")
	}
	if p.Accepted+p.ZeroRules+p.NoImprovement != p.Probes {
		t.Errorf("Provenance classifications %d+%d+%d != probes %d",
			p.Accepted, p.ZeroRules, p.NoImprovement, p.Probes)
	}

	// A warm re-run adds hits but no new probe spans: every probe is
	// answered from the cache without re-entering the pipeline.
	res2, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p := res2.Provenance; p.CacheHits != p.Probes {
		t.Fatalf("warm re-run missed %d probes", p.Probes-p.CacheHits)
	}
	if got := len(sink.Spans("probe")); got != len(probes) {
		t.Errorf("warm re-run grew probe spans %d -> %d, want unchanged", len(probes), got)
	}
	snap2 := observer.Registry().Snapshot()
	want := int64(res.Provenance.CacheHits + res2.Provenance.CacheHits)
	if got := snap2.Counters["probe_cache_hits_total"]; got != want {
		t.Errorf("probe_cache_hits_total after re-run = %d, want %d", got, want)
	}
}

// TestObsRunPhasesAlwaysPopulated: Result.Phases carries the stage
// timings even with no Observer configured.
func TestObsRunPhasesAlwaysPopulated(t *testing.T) {
	sys := f2System(t, 4_000, 0, Config{NumBins: 15, Walk: walkBudget()})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"search", "mine-final", "verify-final"}
	if len(res.Phases) != len(want) {
		t.Fatalf("Phases = %+v, want %v", res.Phases, want)
	}
	for i, name := range want {
		if res.Phases[i].Name != name {
			t.Errorf("Phases[%d].Name = %q, want %q", i, res.Phases[i].Name, name)
		}
		if res.Phases[i].Seconds < 0 {
			t.Errorf("Phases[%d].Seconds = %g, want >= 0", i, res.Phases[i].Seconds)
		}
	}
}

// TestObsDisabledProbeZeroAlloc is the acceptance gate for the nil
// observer: a warm-cache threshold probe must not allocate at all when
// observability is off.
func TestObsDisabledProbeZeroAlloc(t *testing.T) {
	sys := f2System(t, 4_000, 0, Config{NumBins: 15, Walk: walkBudget()})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sys.objective(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.Probe{Support: res.MinSupport, Confidence: res.MinConfidence}
	if allocs := testing.AllocsPerRun(200, func() {
		if r := obj.Evaluate(p); r.Err != nil || !r.CacheHit {
			t.Fatalf("warm probe: %+v, want a cache hit", r)
		}
	}); allocs != 0 {
		t.Errorf("warm probe with nil observer allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkProbeObserverOverhead measures the warm-cache probe path with
// observability off and on. The disabled case must report 0 allocs/op;
// the enabled case shows the cost of the counters (no span is created
// for a cache hit).
func BenchmarkProbeObserverOverhead(b *testing.B) {
	bench := func(b *testing.B, observer *obs.Observer) {
		gen := synthSource(b, synth.Config{
			Function: 2, N: 4_000, Seed: 42, Perturbation: 0.05, FracA: 0.4,
		})
		sys, err := New(gen, Config{
			XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
			CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
			NumBins: 15, Walk: walkBudget(), Observer: observer,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		obj, err := sys.objective(synth.GroupA)
		if err != nil {
			b.Fatal(err)
		}
		p := optimizer.Probe{Support: res.MinSupport, Confidence: res.MinConfidence}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := obj.Evaluate(p); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { bench(b, nil) })
	b.Run("enabled", func(b *testing.B) { bench(b, obs.New(&obs.MemSink{})) })
}

// TestBinFitSpanNamesStrategy: the binfit span names the strategy that
// fitted each axis. On Function 2 data supervised binning finds cuts on
// salary, while age's marginal class distribution is flat, so age falls
// back to equi-width; a categorical axis is binned by category.
func TestBinFitSpanNamesStrategy(t *testing.T) {
	cases := []struct {
		name         string
		cfg          Config
		wantX, wantY string
	}{
		{"equi-width", Config{BinStrategy: BinEquiWidth}, "equi-width", "equi-width"},
		{"equi-depth", Config{BinStrategy: BinEquiDepth}, "equi-depth", "equi-depth"},
		{"homogeneity", Config{BinStrategy: BinHomogeneity}, "homogeneity", "homogeneity"},
		{"supervised", Config{BinStrategy: BinSupervised}, "equi-width", "supervised"},
		{"categorical", Config{XAttr: synth.AttrCar}, "categorical", "equi-width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &obs.MemSink{}
			cfg := tc.cfg
			cfg.NumBins = 20
			cfg.Observer = obs.New(sink)
			sys := f2System(t, 10_000, 0, cfg)
			spans := sink.Spans("binfit")
			if len(spans) != 1 {
				t.Fatalf("%d binfit spans, want 1", len(spans))
			}
			if got := spans[0].Attr("method_x"); got != tc.wantX {
				t.Errorf("method_x = %q, want %q", got, tc.wantX)
			}
			if got := spans[0].Attr("method_y"); got != tc.wantY {
				t.Errorf("method_y = %q, want %q", got, tc.wantY)
			}
			if _, yb := sys.Binners(); tc.wantY == "supervised" && yb.NumBins() < 3 {
				t.Errorf("supervised salary axis has %d bins, want cuts", yb.NumBins())
			}
		})
	}
}
