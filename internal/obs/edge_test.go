package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// Satellite coverage: MemSink bounding, metrics-snapshot flushing,
// Prometheus exposition edge cases, and the registry fast-path
// benchmark backing the RWMutex change.

func TestObsMemSinkCapDropsAndCounts(t *testing.T) {
	sink := &MemSink{Cap: 2}
	o := New(sink)
	for i := 0; i < 5; i++ {
		o.Root("s").End()
	}
	if got := sink.Len(); got != 2 {
		t.Fatalf("capped sink holds %d events, want 2", got)
	}
	if got := sink.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// The retained events are the earliest ones.
	if evs := sink.Events(); evs[0].ID >= evs[1].ID {
		t.Fatalf("retained events out of order: %+v", evs)
	}

	unbounded := &MemSink{}
	for i := 0; i < 5; i++ {
		unbounded.Emit(Event{Type: EventSpan, Name: "s"})
	}
	if unbounded.Len() != 5 || unbounded.Dropped() != 0 {
		t.Fatalf("unbounded sink: len=%d dropped=%d", unbounded.Len(), unbounded.Dropped())
	}
}

func TestObsFlushMetricsEmitsSnapshot(t *testing.T) {
	sink := &MemSink{}
	o := New(sink)
	o.Registry().Counter("ops_total").Add(7)
	o.Registry().Gauge("depth").Set(-2)
	o.Registry().HistogramBuckets("sz", SizeBuckets).Observe(3)
	o.FlushMetrics()

	evs := sink.Events()
	if len(evs) != 1 || evs[0].Type != EventMetrics {
		t.Fatalf("want one metrics event, got %+v", evs)
	}
	ev := evs[0]
	for key, want := range map[string]string{
		"counter.ops_total": "7",
		"gauge.depth":       "-2",
		"hist.sz.count":     "1",
		"hist.sz.sum":       "3",
	} {
		if got := ev.Attr(key); got != want {
			t.Fatalf("metrics attr %s = %q, want %q (attrs: %+v)", key, got, want, ev.Attrs)
		}
	}

	// Nil observer and sinkless observer both no-op.
	var nilObs *Observer
	nilObs.FlushMetrics()
	New(nil).FlushMetrics()
}

func TestObsSanitizeMetricNameEdgeCases(t *testing.T) {
	cases := map[string]string{
		"bin.occupancy":   "bin_occupancy",
		"héllo":           "h__llo", // byte-wise: 2-byte rune -> 2 underscores
		"a b\tc":          "a_b_c",
		"7":               "_",
		"":                "",
		"__already_ok__":  "__already_ok__",
		"per-level/prune": "per_level_prune",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestObsPrometheusEmptyHistogram(t *testing.T) {
	// A histogram that was created but never observed must still render
	// a complete, well-formed series: all buckets 0, sum 0, count 0.
	r := NewRegistry()
	r.HistogramBuckets("empty_hist", []float64{1, 2})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE arcs_empty_hist histogram",
		`arcs_empty_hist_bucket{le="1"} 0`,
		`arcs_empty_hist_bucket{le="2"} 0`,
		`arcs_empty_hist_bucket{le="+Inf"} 0`,
		"arcs_empty_hist_sum 0",
		"arcs_empty_hist_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty histogram missing %q in:\n%s", want, out)
		}
	}
}

func TestObsPrometheusNonFiniteValues(t *testing.T) {
	// Gauges and counters are integer-valued, so non-finite values enter
	// through histogram observations. The text format carries NaN and
	// +Inf natively; the JSON snapshot must clamp them instead, because
	// encoding/json rejects non-finite floats outright.
	r := NewRegistry()
	r.HistogramBuckets("weird", []float64{1}).Observe(math.Inf(1))
	r.HistogramBuckets("nan_hist", []float64{1}).Observe(math.NaN())
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "arcs_weird_sum +Inf") {
		t.Fatalf("text exposition should render +Inf raw:\n%s", out)
	}
	if !strings.Contains(out, "arcs_nan_hist_sum NaN") {
		t.Fatalf("text exposition should render NaN raw:\n%s", out)
	}
	// The +Inf observation lands in the overflow bucket only.
	if !strings.Contains(out, `arcs_weird_bucket{le="1"} 0`) || !strings.Contains(out, `arcs_weird_bucket{le="+Inf"} 1`) {
		t.Fatalf("infinite observation misbucketed:\n%s", out)
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot with non-finite values must stay JSON-marshalable: %v", err)
	}
	var round map[string]any
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if strings.Contains(string(data), "Inf") || strings.Contains(string(data), "NaN") {
		t.Fatalf("non-finite literals leaked into JSON: %s", data)
	}
}

func TestObsBucketJSONClampsInfiniteBound(t *testing.T) {
	data, err := json.Marshal(Bucket{UpperBound: math.Inf(1), Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"count":3`) || strings.Contains(string(data), "Inf") {
		t.Fatalf("bucket JSON = %s", data)
	}
}

// TestObsRegistryParallelLookupSafety cross-checks the RWMutex fast
// path under racing creators and readers (run with -race in CI).
func TestObsRegistryParallelLookupSafety(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("c%d", i%16)).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(0.001)
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for _, v := range snap.Counters {
		total += v
	}
	if total != 8*200 {
		t.Fatalf("counter increments lost: %d, want %d", total, 8*200)
	}
	if snap.Gauges["g"] != 8*200 {
		t.Fatalf("gauge = %d, want %d", snap.Gauges["g"], 8*200)
	}
}

// BenchmarkRegistryLookupParallel is the evidence for the read-mostly
// fast path: steady-state handle lookups from many goroutines (the
// BitOp worker pattern before handles were cached) must scale instead of
// serializing on the registry mutex. Compare with the serial variant —
// under the old full-mutex lookup the parallel ns/op degraded well below
// serial throughput; with RLock it tracks the core count.
func BenchmarkRegistryLookupParallel(b *testing.B) {
	r := NewRegistry()
	r.Counter("hot_counter") // pre-create: steady state is lookup-only
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Counter("hot_counter").Inc()
		}
	})
}

func BenchmarkRegistryLookupSerial(b *testing.B) {
	r := NewRegistry()
	r.Counter("hot_counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("hot_counter").Inc()
	}
}
