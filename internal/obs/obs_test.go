package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsNilObserverIsSafeAndFree(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	if o.Registry() != nil {
		t.Fatal("nil observer should hand out a nil registry")
	}
	root := o.Root("run", Int("n", 1))
	if root.Enabled() {
		t.Fatal("nil observer produced an enabled span")
	}
	child := root.Child("mine")
	child.End(Float("cost", 1.5))
	root.End()
	o.Annotate("note", Str("k", "v"))

	// Nil metric handles are silently inert.
	var reg *Registry
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(7)
	reg.Histogram("h").Observe(0.5)
	if got := reg.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestObsSpanNestingAndAttrs(t *testing.T) {
	sink := &MemSink{}
	o := New(sink)
	root := o.Root("run", Str("crit", "A"))
	child := root.Child("mine")
	grand := child.Child("cluster")
	grand.End(Int("rects", 4))
	child.End()
	o.Annotate("fallback", Str("reason", "edge"))
	root.End(Int("rules", 3))

	evs := sink.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	run, mine, cl := byName["run"], byName["mine"], byName["cluster"]
	if mine.Parent != run.ID || cl.Parent != mine.ID {
		t.Fatalf("nesting broken: run=%d mine(parent=%d) cluster(parent=%d)",
			run.ID, mine.Parent, cl.Parent)
	}
	if run.Parent != 0 {
		t.Fatalf("root span has parent %d", run.Parent)
	}
	if run.Attr("crit") != "A" || run.Attr("rules") != "3" {
		t.Fatalf("run attrs lost start/end values: %+v", run.Attrs)
	}
	if cl.Attr("rects") != "4" {
		t.Fatalf("cluster end attr missing: %+v", cl.Attrs)
	}
	fb := byName["fallback"]
	if fb.Type != EventInstant || fb.Duration != 0 || fb.Attr("reason") != "edge" {
		t.Fatalf("instant event malformed: %+v", fb)
	}
	// Every ended span feeds its phase histogram.
	for _, name := range []string{"run", "mine", "cluster"} {
		if n := o.Registry().Histogram("phase_" + name + "_seconds").Count(); n != 1 {
			t.Fatalf("phase_%s_seconds count = %d, want 1", name, n)
		}
	}
}

func TestObsRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(2)
	r.Counter("hits").Inc()
	r.Gauge("depth").Set(9)
	r.Gauge("depth").Add(-4)
	h := r.HistogramBuckets("sizes", SizeBuckets)
	for _, v := range []float64{1, 3, 3, 2000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if snap.Counters["hits"] != 3 {
		t.Fatalf("hits = %d, want 3", snap.Counters["hits"])
	}
	if snap.Gauges["depth"] != 5 {
		t.Fatalf("depth = %d, want 5", snap.Gauges["depth"])
	}
	hs := snap.Histograms["sizes"]
	if hs.Count != 4 || hs.Sum != 2007 || hs.Min != 1 || hs.Max != 2000 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	// Cumulative buckets: le=1 holds 1, le=2 holds 1, le=4 holds 3; the
	// 2000 observation lives only in the implicit +Inf (= Count).
	want := map[float64]int64{1: 1, 2: 1, 4: 3, 1024: 3}
	for _, b := range hs.Buckets {
		if w, ok := want[b.UpperBound]; ok && b.Count != w {
			t.Fatalf("bucket le=%g count = %d, want %d", b.UpperBound, b.Count, w)
		}
	}
	if hs.Mean() != 2007.0/4 {
		t.Fatalf("mean = %g", hs.Mean())
	}
	// The snapshot must be JSON-clean (no infinities from min/max).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	empty := r.Histogram("never-observed")
	_ = empty
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot with empty histogram does not marshal: %v", err)
	}
}

func TestObsFloatGauge(t *testing.T) {
	r := NewRegistry()
	r.FloatGauge("error_rate").Set(12.5)
	r.FloatGauge("error_rate").Add(-2.5)
	if got := r.FloatGauge("error_rate").Value(); got != 10 {
		t.Fatalf("error_rate = %g, want 10", got)
	}
	r.FloatGauge("bad").Set(math.Inf(1))
	snap := r.Snapshot()
	if snap.FloatGauges["error_rate"] != 10 {
		t.Fatalf("snapshot error_rate = %g, want 10", snap.FloatGauges["error_rate"])
	}
	// Non-finite values are clamped at snapshot time so the snapshot
	// stays JSON-encodable.
	if snap.FloatGauges["bad"] != math.MaxFloat64 {
		t.Fatalf("snapshot bad = %g, want clamp", snap.FloatGauges["bad"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE arcs_error_rate gauge",
		"arcs_error_rate 10",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q in:\n%s", want, buf.String())
		}
	}
	// Nil registry hands out a nil no-op handle.
	var nilReg *Registry
	nilReg.FloatGauge("x").Set(1)
	if got := nilReg.FloatGauge("x").Value(); got != 0 {
		t.Fatalf("nil handle value = %g, want 0", got)
	}
}

func TestObsRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestObsJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := New(sink)
	sp := o.Root("run", Str("crit", "A"))
	sp.Child("mine").End()
	sp.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []jsonlEvent
	for sc.Scan() {
		var rec jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL records, want 2", len(lines))
	}
	// Children end first: mine is line 0, run line 1.
	if lines[0].Name != "mine" || lines[1].Name != "run" {
		t.Fatalf("unexpected order: %q, %q", lines[0].Name, lines[1].Name)
	}
	if lines[0].Parent != lines[1].ID {
		t.Fatal("JSONL lost the parent link")
	}
	if lines[1].Attrs["crit"] != "A" {
		t.Fatalf("JSONL lost attrs: %+v", lines[1].Attrs)
	}
}

func TestObsPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe_cache_hits_total").Add(12)
	r.Gauge("pool_queue_depth").Set(3)
	r.HistogramBuckets("probe_batch_size", []float64{1, 8}).Observe(5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE arcs_probe_cache_hits_total counter",
		"arcs_probe_cache_hits_total 12",
		"# TYPE arcs_pool_queue_depth gauge",
		"arcs_pool_queue_depth 3",
		"# TYPE arcs_probe_batch_size histogram",
		`arcs_probe_batch_size_bucket{le="1"} 0`,
		`arcs_probe_batch_size_bucket{le="8"} 1`,
		`arcs_probe_batch_size_bucket{le="+Inf"} 1`,
		"arcs_probe_batch_size_sum 5",
		"arcs_probe_batch_size_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestObsSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"phase_mine-final_seconds": "phase_mine_final_seconds",
		"ok_name_9":                "ok_name_9",
		"9starts_with_digit":       "_starts_with_digit",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestObsPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	PublishExpvar("arcs_test_obs", r)
	// A second publication must not panic.
	PublishExpvar("arcs_test_obs", r)
	PublishExpvar("arcs_test_obs", NewRegistry())
}

func TestObsSetupSlogFormats(t *testing.T) {
	var buf bytes.Buffer
	logger, err := SetupSlog(&buf, "json", false)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line %q: %v", buf.String(), err)
	}
	if rec["msg"] != "hello" {
		t.Fatalf("unexpected json record: %v", rec)
	}
	// Debug suppressed at Info level, emitted when verbose.
	buf.Reset()
	logger.Debug("quiet")
	if buf.Len() != 0 {
		t.Fatal("debug line emitted at info level")
	}
	if logger, err = SetupSlog(&buf, "text", true); err != nil {
		t.Fatal(err)
	}
	logger.Debug("loud")
	if !strings.Contains(buf.String(), "loud") {
		t.Fatal("verbose logger dropped debug line")
	}
	if _, err := SetupSlog(&buf, "yaml", false); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestObsProfilerWritesFiles(t *testing.T) {
	dir := t.TempDir()
	p := &Profiler{
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
		TracePath:  filepath.Join(dir, "trace.out"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	time.Sleep(10 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPUProfile, p.MemProfile, p.TracePath} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile output missing: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile output %s is empty", path)
		}
	}
}

func TestObsProfilerFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var p Profiler
	p.RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", "a", "-memprofile", "b", "-trace", "c"}); err != nil {
		t.Fatal(err)
	}
	if p.CPUProfile != "a" || p.MemProfile != "b" || p.TracePath != "c" {
		t.Fatalf("flags not bound: %+v", p)
	}
	if !p.Enabled() {
		t.Fatal("profiler with outputs reports disabled")
	}
	if (&Profiler{}).Enabled() {
		t.Fatal("empty profiler reports enabled")
	}
}
