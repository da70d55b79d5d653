package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"arcs/internal/obs"
)

// tracer collects the spans of a traced run in memory. The benchmark's
// own spans and core's spans share one observer, so they land in one
// trace and core's counters in one registry. Every method is a no-op on a
// nil tracer, which is how an untraced run uses it.
type tracer struct {
	sink *obs.MemSink
	o    *obs.Observer

	// ops and setups are the time windows of traced ops and set-ups; a
	// span belongs to the scope whose window holds its start.
	ops, setups   []window
	nOps, nSetups int
	runtime       runtimeSample // summed over traced ops

	// Registry snapshots: after the set-ups, and around the timed window.
	afterSetup, windowStart, windowEnd *obs.Snapshot
}

type window struct{ start, end time.Time }

func newTracer() *tracer {
	sink := &obs.MemSink{}
	return &tracer{sink: sink, o: obs.New(sink)}
}

func (t *tracer) addSetup(start, end time.Time) {
	if t == nil {
		return
	}
	t.setups = append(t.setups, window{start, end})
	t.nSetups++
}

// addOps records a window holding n traced ops and their runtime cost.
func (t *tracer) addOps(start, end time.Time, n int, rt runtimeSample) {
	if t == nil {
		return
	}
	t.ops = append(t.ops, window{start, end})
	t.nOps += n
	t.runtime.gcSeconds += rt.gcSeconds
	t.runtime.allocBytes += rt.allocBytes
}

// markSetupDone snapshots the registry once the set-ups are done, before
// any warm-up op.
func (t *tracer) markSetupDone() {
	if t == nil {
		return
	}
	t.afterSetup = t.o.Registry().Snapshot()
}

// markWindow snapshots the registry when the timed window opens.
func (t *tracer) markWindow() {
	if t == nil {
		return
	}
	t.windowStart = t.o.Registry().Snapshot()
}

func (t *tracer) endWindow() {
	if t == nil {
		return
	}
	t.windowEnd = t.o.Registry().Snapshot()
}

// spanLayers maps each per-layer time to the spans it sums: the
// benchmark's spans around public calls and core's own phase spans.
var spanLayers = []struct {
	metric string
	spans  []string
}{
	{"dataset.infer_s", []string{"dataset.infer"}},
	{"dataset.load_s", []string{"dataset.load"}},
	{"core.build_s", []string{"core.build"}},
	{"core.ingest_s", []string{"ingest"}},
	{"core.binfit_s", []string{"binfit"}},
	{"core.count_s", []string{"count"}},
	{"core.verify_index_s", []string{"verify-index"}},
	{"core.run_s", []string{"core.run"}},
	{"core.search_s", []string{"search"}},
	{"core.thresholds_s", []string{"thresholds"}},
	{"core.probe_s", []string{"probe"}},
	{"engine.mine_s", []string{"mine"}},
	{"bitop.cluster_s", []string{"cluster"}},
	{"verify.verify_s", []string{"verify", "verify-final"}},
	{"mdl.mdl_s", []string{"mdl"}},
	{"report.write_s", []string{"report.write"}},
	{"registry.publish_s", []string{"registry.publish"}},
	{"registry.activate_s", []string{"registry.activate"}},
	{"bench.op_s", []string{"bench.op"}},
}

// counterLayers maps per-layer counts to core's registry counters.
var counterLayers = []struct{ metric, counter string }{
	{"bitop.and_word_ops", "bitop_and_word_ops_total"},
	{"bitop.cmp_word_ops", "bitop_cmp_word_ops_total"},
	{"bitop.candidates", "bitop_candidates_total"},
	{"bitop.rounds", "bitop_rounds_total"},
}

// backendCodes encodes counts.backend.
var backendCodes = map[string]float64{"dense": 0, "sparse": 1, "spill": 2}

const (
	scopeNone = iota
	scopeOp
	scopeSetup
)

// scoped is the trace split by scope: span events and their summed
// durations per name.
type scoped struct {
	events []obs.Event
	sum    map[string]time.Duration
}

// fillLayers computes every per-layer metric the workload has not set
// itself. A layer that runs inside the workload's op is reported per
// traced op; one that runs only in set-up (the System build on
// remine-hires, the model mining on apply-serve) is reported per set-up
// repetition; a layer the workload never reaches reports 0.
func (t *tracer) fillLayers(b *bench) {
	byID := map[uint64]obs.Event{}
	scopes := map[int]*scoped{scopeOp: {sum: map[string]time.Duration{}}, scopeSetup: {sum: map[string]time.Duration{}}}
	for _, ev := range t.sink.Events() {
		if ev.Type != obs.EventSpan {
			continue
		}
		byID[ev.ID] = ev
		if s := scopes[t.scopeOf(ev.Start)]; s != nil {
			s.events = append(s.events, ev)
			s.sum[ev.Name] += ev.Duration
		}
	}
	set := func(name string, v float64) {
		if _, done := b.layer[name]; !done {
			b.layer[name] = v
		}
	}
	// pick chooses the scope a layer is reported in and its divisor.
	pick := func(names ...string) (*scoped, float64) {
		for _, sc := range []struct {
			s *scoped
			n int
		}{{scopes[scopeOp], t.nOps}, {scopes[scopeSetup], t.nSetups}} {
			for _, name := range names {
				if sc.s.sum[name] > 0 && sc.n > 0 {
					return sc.s, float64(sc.n)
				}
			}
		}
		return nil, 1
	}
	for _, l := range spanLayers {
		s, n := pick(l.spans...)
		var total time.Duration
		if s != nil {
			for _, name := range l.spans {
				total += s.sum[name]
			}
		}
		set(l.metric, total.Seconds()/n)
	}

	// Attributes of the dataset and count spans.
	if s, n := pick("dataset.load"); s != nil {
		var rows, quarantined, bytes float64
		for _, ev := range s.events {
			if ev.Name == "dataset.load" {
				rows += attrFloat(ev, "rows")
				quarantined += attrFloat(ev, "quarantined")
				bytes += attrFloat(ev, "bytes")
			}
		}
		set("dataset.rows", rows/n)
		set("dataset.rows_quarantined", quarantined/n)
		set("dataset.mb_per_s", bytes/1e6/s.sum["dataset.load"].Seconds())
	}
	if s, _ := pick("count"); s != nil {
		for _, ev := range s.events {
			if ev.Name == "count" {
				set("counts.mem_bytes", attrFloat(ev, "mem_bytes"))
				set("counts.backend", backendCodes[ev.Attr("backend")])
			}
		}
	}
	if s, _ := pick("probe-batch"); s != nil {
		var workers, batches float64
		for _, ev := range s.events {
			if ev.Name == "probe-batch" {
				workers += attrFloat(ev, "workers")
				batches++
			}
		}
		set("core.probe_batch_workers", workers/batches)
	}
	// Share of probe time spent mining and clustering, counting only the
	// mine and cluster spans that belong to a probe.
	if s, _ := pick("probe"); s != nil {
		var inProbe time.Duration
		for _, ev := range s.events {
			if (ev.Name == "mine" || ev.Name == "cluster") && byID[ev.Parent].Name == "probe" {
				inProbe += ev.Duration
			}
		}
		set("bench.mine_cluster_share", inProbe.Seconds()/s.sum["probe"].Seconds())
	}
	// Span coverage: op time outside every direct child of the op span.
	op := scopes[scopeOp]
	var opTime, covered time.Duration
	for _, ev := range op.events {
		if ev.Name == "bench.op" {
			opTime += ev.Duration
		} else if byID[ev.Parent].Name == "bench.op" {
			covered += ev.Duration
		}
	}
	if opTime > 0 {
		set("bench.unattributed_share", (opTime-covered).Seconds()/opTime.Seconds())
		set("bench.load_share", op.sum["dataset.load"].Seconds()/opTime.Seconds())
	}

	// Search counters: per traced op when the op searches, else per
	// set-up. The delta's total is the base of the ratios.
	searchInOps := op.sum["search"] > 0
	delta := func(counter string) (perUnit, total float64) {
		switch {
		case searchInOps:
			total = float64(t.windowEnd.Counters[counter] - t.windowStart.Counters[counter])
			return total / float64(t.nOps), total
		case t.nSetups > 0:
			total = float64(t.afterSetup.Counters[counter])
			return total / float64(t.nSetups), total
		}
		return 0, 0
	}
	for _, l := range counterLayers {
		v, _ := delta(l.counter)
		set(l.metric, v)
	}
	hits, hitsTotal := delta("probe_cache_hits_total")
	misses, missesTotal := delta("probe_cache_misses_total")
	set("optimizer.probes", hits+misses)
	set("optimizer.cache_hit_ratio", ratio(hitsTotal, hitsTotal+missesTotal))
	fast, fastTotal := delta("verify_fastpath_rules_total")
	fallback, fallbackTotal := delta("verify_fallback_rules_total")
	set("verify.rules", fast+fallback)
	set("verify.fastpath_ratio", ratio(fastTotal, fastTotal+fallbackTotal))

	if t.nOps > 0 {
		set("runtime.gc_s", t.runtime.gcSeconds/float64(t.nOps))
		set("runtime.alloc_mb", t.runtime.allocBytes/1e6/float64(t.nOps))
	}
	for _, d := range perLayer {
		set(d.name, 0)
	}
}

func (t *tracer) scopeOf(ts time.Time) int {
	in := func(ws []window) bool {
		i := sort.Search(len(ws), func(i int) bool { return !ws[i].end.Before(ts) })
		return i < len(ws) && !ts.Before(ws[i].start)
	}
	switch {
	case in(t.ops):
		return scopeOp
	case in(t.setups):
		return scopeSetup
	}
	return scopeNone
}

// write flushes the registry into the trace and writes every event as
// JSONL in the format `arcstrace summarize` reads.
func (t *tracer) write(path string) error {
	t.o.FlushMetrics()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	js := obs.NewJSONLSink(w)
	for _, ev := range t.sink.Events() {
		js.Emit(ev)
	}
	err = js.Err()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

func attrFloat(ev obs.Event, key string) float64 {
	v, err := strconv.ParseFloat(ev.Attr(key), 64)
	if err != nil {
		return 0
	}
	return v
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
