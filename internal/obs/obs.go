// Package obs is the pipeline's observability layer: nestable timed
// spans, a counters/gauges/histograms registry, and pluggable event
// sinks (in-memory, JSONL trace, Prometheus text exposition), plus the
// profiling and structured-logging helpers shared by the commands.
//
// The layer is built to cost nothing when it is off. A nil *Observer is
// the disabled observer: every method on it — and on the zero Span and
// on nil metric handles — is a no-op that performs no allocation, so
// call sites never need an "is observability on?" branch. The core
// system threads Span values through the pipeline explicitly instead of
// using a context, keeping the hot probe path free of interface and map
// traffic.
//
// Span taxonomy (parent → child), as emitted by internal/core:
//
//	init                  system construction (core.New)
//	  ingest              axis statistics + reservoir sample pass
//	  binfit              axis binner construction, naming each axis's
//	                      strategy (method_x, method_y)
//	  count               count-backend fill pass (mode sequential or
//	                      sharded, backend dense or sparse)
//	  verify-index        verification-sample pre-binning and k-of-n draws
//	run                   one RunValue threshold search
//	  search              optimizer strategy
//	    probe-batch       one worker-pool batch of threshold probes
//	      probe           one (support, confidence) evaluation
//	        mine          rule grid set from the BinArray + smoothing
//	        cluster       BitOp rectangles + rule conversion
//	        verify        repeated k-of-n error measurement
//	        mdl           MDL cost
//	  mine-final          re-mine at the winning thresholds
//	  verify-final        full-sample error counts
//
// Every span's duration is also recorded in the registry as a
// `phase_<name>_seconds` histogram, so per-phase latency distributions
// survive even when no sink is attached.
package obs

import (
	"expvar"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are
// strings so events serialize uniformly; use the Int/Float/Str
// constructors.
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Float builds a float attribute with full round-trip precision.
func Float(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Observer is the root of the observability layer: it issues span IDs,
// owns the metrics registry, and forwards finished spans to the sink.
// A nil Observer is valid and disables everything. An Observer is safe
// for concurrent use.
type Observer struct {
	sink Sink
	reg  *Registry
	ids  atomic.Uint64
}

// New builds an enabled Observer with a fresh registry. sink may be nil:
// metrics are still collected, spans are timed into the phase histograms
// but no events are emitted.
func New(sink Sink) *Observer {
	return NewWithRegistry(sink, nil)
}

// NewWithRegistry builds an enabled Observer writing metrics into an
// existing registry (a fresh one when reg is nil). It is how a daemon
// aggregates many runs onto one scrape surface: each run gets its own
// Observer and sink (so its span stream is separable) while every run's
// counters and histograms accumulate in the shared registry.
func NewWithRegistry(sink Sink, reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{sink: sink, reg: reg}
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// Registry returns the metrics registry, nil for the disabled observer
// (Registry methods are nil-safe, so the result can be used directly).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Root starts a new top-level span. On the disabled observer it returns
// the zero Span, whose methods all no-op.
func (o *Observer) Root(name string, attrs ...Attr) Span {
	if o == nil {
		return Span{}
	}
	return Span{obs: o, name: name, id: o.ids.Add(1), start: time.Now(), attrs: attrs}
}

// Annotate emits an instantaneous event (no duration), e.g. one
// search.probe step replayed from a finished search.
func (o *Observer) Annotate(name string, attrs ...Attr) {
	if o == nil || o.sink == nil {
		return
	}
	o.sink.Emit(Event{
		Type:  EventInstant,
		Name:  name,
		ID:    o.ids.Add(1),
		Start: time.Now(),
		Attrs: attrs,
	})
}

// Span is one nestable timed region. The zero Span is the disabled span:
// Child returns another disabled span and End does nothing, so spans can
// be threaded through code unconditionally.
type Span struct {
	obs    *Observer
	name   string
	id     uint64
	parent uint64
	start  time.Time
	attrs  []Attr
}

// Enabled reports whether the span will be emitted.
func (s Span) Enabled() bool { return s.obs != nil }

// Child starts a nested span.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.obs == nil {
		return Span{}
	}
	return Span{obs: s.obs, name: name, id: s.obs.ids.Add(1), parent: s.id, start: time.Now(), attrs: attrs}
}

// End finishes the span: its duration is recorded in the
// phase_<name>_seconds histogram and, when a sink is attached, a span
// event carrying the start attributes plus attrs is emitted.
func (s Span) End(attrs ...Attr) {
	if s.obs == nil {
		return
	}
	d := time.Since(s.start)
	s.obs.reg.Histogram("phase_" + s.name + "_seconds").Observe(d.Seconds())
	if s.obs.sink == nil {
		return
	}
	all := s.attrs
	if len(attrs) > 0 {
		all = make([]Attr, 0, len(s.attrs)+len(attrs))
		all = append(append(all, s.attrs...), attrs...)
	}
	s.obs.sink.Emit(Event{
		Type:     EventSpan,
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Start:    s.start,
		Duration: d,
		Attrs:    all,
	})
}

// FlushMetrics emits one EventMetrics record carrying the registry's
// current snapshot into the sink, with counters as "counter.<name>"
// attributes, gauges as "gauge.<name>", and each histogram's count and
// sum as "hist.<name>.count" / "hist.<name>.sum". Commands call it once
// before closing a trace sink so `arcstrace diff` can compare counters
// across runs. No-op on the disabled observer or without a sink.
func (o *Observer) FlushMetrics() {
	if o == nil || o.sink == nil {
		return
	}
	snap := o.reg.Snapshot()
	attrs := make([]Attr, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.FloatGauges)+2*len(snap.Histograms))
	for _, name := range sortedKeys(snap.Counters) {
		attrs = append(attrs, Attr{Key: "counter." + name, Value: strconv.FormatInt(snap.Counters[name], 10)})
	}
	for _, name := range sortedKeys(snap.Gauges) {
		attrs = append(attrs, Attr{Key: "gauge." + name, Value: strconv.FormatInt(snap.Gauges[name], 10)})
	}
	for _, name := range sortedKeys(snap.FloatGauges) {
		attrs = append(attrs, Attr{Key: "gauge." + name, Value: strconv.FormatFloat(snap.FloatGauges[name], 'g', -1, 64)})
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		attrs = append(attrs,
			Attr{Key: "hist." + name + ".count", Value: strconv.FormatInt(h.Count, 10)},
			Attr{Key: "hist." + name + ".sum", Value: strconv.FormatFloat(h.Sum, 'g', -1, 64)})
	}
	o.sink.Emit(Event{
		Type:  EventMetrics,
		Name:  "registry",
		ID:    o.ids.Add(1),
		Start: time.Now(),
		Attrs: attrs,
	})
}

// expvarHolders tracks the registries this package has published, so a
// name can be re-pointed at a fresh registry. expvar.Publish panics on a
// duplicate name and offers no unpublish, so the published Func reads
// through a swappable holder instead of capturing the registry directly.
var (
	expvarMu      sync.Mutex
	expvarHolders = map[string]*atomic.Pointer[Registry]{}
)

// PublishExpvar exposes the registry's live snapshot as an expvar
// variable, visible on /debug/vars whenever an HTTP server is serving
// the default mux. Publishing a name this package already published
// re-points the variable at reg — a restarted in-process daemon serves
// the new registry, not a stale snapshot of the old one. Publishing a
// name some other package owns fails rather than silently serving the
// other publisher's data.
func PublishExpvar(name string, reg *Registry) error {
	if reg == nil {
		return fmt.Errorf("obs: cannot publish nil registry as expvar %q", name)
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if h, ok := expvarHolders[name]; ok {
		h.Store(reg)
		return nil
	}
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar %q is already published outside this package", name)
	}
	h := &atomic.Pointer[Registry]{}
	h.Store(reg)
	expvarHolders[name] = h
	expvar.Publish(name, expvar.Func(func() any { return h.Load().Snapshot() }))
	return nil
}
