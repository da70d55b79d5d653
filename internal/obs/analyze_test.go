package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// traceFromObserver runs a small instrumented workload through a
// JSONLSink and parses it back, exercising the full wire round trip.
func traceFromObserver(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	o := New(NewJSONLSink(&buf))
	run := o.Root("run", Str("crit", "A"))
	search := run.Child("search")
	for i := 0; i < 3; i++ {
		probe := search.Child("probe")
		probe.End(Int("rules", i))
	}
	search.End()
	o.Annotate("fallback", Str("reason", "edge"))
	run.End()
	o.Registry().Counter("probes_total").Add(3)
	o.Registry().Gauge("pool_workers").Set(4)
	o.FlushMetrics()
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestObsReadTraceRoundTrip(t *testing.T) {
	tr := traceFromObserver(t)
	// 5 spans + 1 instant + 1 metrics record.
	if len(tr.Events) != 7 {
		t.Fatalf("got %d events, want 7", len(tr.Events))
	}
	if got := tr.Metrics["counter.probes_total"]; got != 3 {
		t.Fatalf("counter.probes_total = %v, want 3", got)
	}
	if got := tr.Metrics["gauge.pool_workers"]; got != 4 {
		t.Fatalf("gauge.pool_workers = %v, want 4", got)
	}
	// Span phase histograms flushed with the snapshot.
	if got := tr.Metrics["hist.phase_probe_seconds.count"]; got != 3 {
		t.Fatalf("hist.phase_probe_seconds.count = %v, want 3", got)
	}
	var run Event
	for _, ev := range tr.Events {
		if ev.Type == EventSpan && ev.Name == "run" {
			run = ev
		}
	}
	if run.Attr("crit") != "A" {
		t.Fatalf("run span lost its attrs: %+v", run.Attrs)
	}
}

func TestObsReadTraceRejectsMalformed(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("{\"type\":\"span\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}

func TestObsPhaseTreeAggregation(t *testing.T) {
	tr := traceFromObserver(t)
	roots := tr.PhaseTree()
	if len(roots) != 1 || roots[0].Name != "run" {
		t.Fatalf("want single root 'run', got %+v", roots)
	}
	run := roots[0]
	if run.Count != 1 || len(run.Children) != 1 {
		t.Fatalf("run node: %+v", run)
	}
	search := run.Children[0]
	if search.Name != "search" || len(search.Children) != 1 {
		t.Fatalf("search node: %+v", search)
	}
	probe := search.Children[0]
	if probe.Name != "probe" || probe.Count != 3 {
		t.Fatalf("probe spans should aggregate to one node with count 3: %+v", probe)
	}
	// Self = total minus children; the probe leaf has no children.
	if probe.Self != probe.Total {
		t.Fatalf("leaf self %v != total %v", probe.Self, probe.Total)
	}
	if search.Self != search.Total-probe.Total {
		t.Fatalf("search self %v, want total %v - probes %v", search.Self, search.Total, probe.Total)
	}
}

func TestObsWritePhaseTree(t *testing.T) {
	tr := traceFromObserver(t)
	var buf bytes.Buffer
	if err := WritePhaseTree(&buf, tr.PhaseTree()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase", "run", "  search", "    probe", "%root"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q in:\n%s", want, out)
		}
	}
}

// synthTrace builds a trace with one root span of the given duration and
// the given counter values, bypassing real timing so diffs are exact.
func synthTrace(runDur time.Duration, counters map[string]float64) *Trace {
	tr := &Trace{Metrics: map[string]float64{}}
	tr.Events = append(tr.Events, Event{Type: EventSpan, Name: "run", ID: 1, Duration: runDur})
	for k, v := range counters {
		tr.Metrics["counter."+k] = v
	}
	return tr
}

func TestObsDiffTracesFlagsRegressions(t *testing.T) {
	oldT := synthTrace(100*time.Millisecond, map[string]float64{"and_ops": 1000})
	newT := synthTrace(150*time.Millisecond, map[string]float64{"and_ops": 1300})
	regs := DiffTraces(oldT, newT, DefaultDiffOptions)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (phase + counter), got %+v", regs)
	}
	// Sorted by descending growth: run +50% before and_ops +30%.
	if regs[0].Kind != "phase" || regs[0].Name != "run" {
		t.Fatalf("worst regression should be the run phase: %+v", regs[0])
	}
	if regs[1].Kind != "counter" || regs[1].Name != "and_ops" {
		t.Fatalf("second regression should be and_ops: %+v", regs[1])
	}
	if s := regs[0].String(); !strings.Contains(s, "run") || !strings.Contains(s, "+50%") {
		t.Fatalf("unhelpful regression string: %q", s)
	}
}

func TestObsDiffTracesRespectsTolerance(t *testing.T) {
	oldT := synthTrace(100*time.Millisecond, map[string]float64{"and_ops": 1000})
	newT := synthTrace(115*time.Millisecond, map[string]float64{"and_ops": 1100})
	if regs := DiffTraces(oldT, newT, DefaultDiffOptions); len(regs) != 0 {
		t.Fatalf("15%% and 10%% growth within 20%% tolerance, got %+v", regs)
	}
	for _, tol := range []float64{0.05, 0} {
		opts := DefaultDiffOptions
		opts.Tolerance = tol
		if regs := DiffTraces(oldT, newT, opts); len(regs) != 2 {
			t.Fatalf("both should regress at %g tolerance, got %+v", tol, regs)
		}
	}
}

func TestObsDiffTracesNoiseFloors(t *testing.T) {
	// Phases under MinPhase in both runs are noise, not regressions —
	// even at 3x growth. Same for counters under MinCount.
	oldT := synthTrace(1*time.Millisecond, map[string]float64{"rare": 2})
	newT := synthTrace(3*time.Millisecond, map[string]float64{"rare": 6})
	if regs := DiffTraces(oldT, newT, DefaultDiffOptions); len(regs) != 0 {
		t.Fatalf("sub-floor values should be ignored, got %+v", regs)
	}
	// A phase only in the new trace is structural, not a regression.
	newT.Events = append(newT.Events, Event{Type: EventSpan, Name: "extra", ID: 9, Duration: time.Second})
	if regs := DiffTraces(oldT, newT, DefaultDiffOptions); len(regs) != 0 {
		t.Fatalf("new-only phases should be ignored, got %+v", regs)
	}
}
