package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arcs/internal/obs"
	"arcs/internal/segment/registry"
)

// Options configures a Server. Registry and Flight are required; the
// rest have serviceable defaults.
type Options struct {
	// Registry is the daemon-wide metrics registry: every run's
	// pipeline metrics, the runtime gauges, and the server's own HTTP
	// metrics all accumulate here and are rendered by GET /metrics.
	Registry *obs.Registry
	// Flight is the shared flight recorder; every run's events are teed
	// into it and GET /debug/flightrecord dumps it.
	Flight *obs.FlightRecorder
	// Harvester samples runtime gauges on scrape and at run boundaries.
	// Nil disables runtime sampling.
	Harvester *obs.RuntimeHarvester
	// Tee, when non-nil, additionally receives every run's events — the
	// daemon-level JSONL trace file.
	Tee obs.Sink
	// Namespace prefixes Prometheus metric names (default "arcs").
	Namespace string
	// CSVRoot restricts csv job specs to paths under this directory;
	// empty allows any path the process can read.
	CSVRoot string
	// SubscriberBuffer is the per-stream event buffer before the slow
	// consumer drop path engages (default 1024).
	SubscriberBuffer int
	// MaxRuns bounds the retained run history; the oldest finished runs
	// are evicted past it (default 64). Runs still in flight are never
	// evicted.
	MaxRuns int
	// QualityTestN is the held-out test table size used to evaluate
	// mining quality after synth-spec runs (the generator re-run on a
	// shifted seed). Default 5000; negative disables quality evaluation.
	QualityTestN int

	// Models is the versioned segmentation-model registry behind the
	// /models and /apply endpoints. Nil leaves the routes mounted but
	// answering 503, so probes distinguish "not configured" from 404.
	Models *registry.Registry
	// ApplyMaxInFlight bounds concurrently served /apply requests;
	// excess load is shed with 429 + Retry-After instead of queuing
	// (default 64).
	ApplyMaxInFlight int
	// ApplyTimeout is the per-request apply deadline; a request's
	// timeout_ms can lower it but never raise it (default 5s).
	ApplyTimeout time.Duration
	// ApplyBreakerThreshold is the consecutive bind/apply error count
	// that trips the apply breaker to fast 503s (default 5).
	ApplyBreakerThreshold int
	// ApplyBreakerCooldown is how long a tripped breaker holds before
	// half-opening (default 5s).
	ApplyBreakerCooldown time.Duration

	// MemBudget is the daemon-wide default count-substrate memory budget
	// in bytes for runs whose spec does not set mem_budget (0 keeps the
	// package default, negative means unlimited; see core.Config).
	MemBudget int64
	// CountsBackend is the daemon-wide default count backend ("auto",
	// "dense", "sparse") for runs whose spec does not set
	// counts_backend.
	CountsBackend string
}

// Server is the arcsd HTTP surface. Construct with New, mount
// Handler(), and flip SetReady(false) to begin a drain.
type Server struct {
	reg       *obs.Registry
	flight    *obs.FlightRecorder
	harvester *obs.RuntimeHarvester
	tee       obs.Sink
	namespace string
	csvRoot   string
	subBuf    int
	maxRuns   int
	qualityN  int

	// Daemon-wide count-substrate defaults, applied to specs that do
	// not choose their own (see JobSpec.coreConfig).
	defMemBudget int64
	defBackend   string

	ready atomic.Bool

	mu    sync.Mutex
	runs  map[string]*Run
	order []string // submission order, for listing and eviction
	seq   atomic.Uint64

	// Serving data plane: the model registry, the bounded in-flight
	// apply limiter, and the bind/apply-error breaker.
	models       *registry.Registry
	applySem     chan struct{}
	applyTimeout time.Duration
	applyBreaker *breaker

	mRunsStarted  *obs.Counter
	mRunsDegraded *obs.Counter
	mRunsCanceled *obs.Counter
	mRunsFailed   *obs.Counter
	mStreamDrops  *obs.Counter
	mHTTPReqs     *obs.Counter
	mHTTPLatency  *obs.Histogram

	mApplyReqs        *obs.Counter
	mApplyShed        *obs.Counter
	mApplyDeadline    *obs.Counter
	mApplyErrors      *obs.Counter
	mApplyBreakerOpen *obs.Counter
	mApplyTuples      *obs.Counter
	mApplyFallback    *obs.Counter
	gApplyInFlight    *obs.Gauge
	hApplySeconds     *obs.Histogram

	// streamWriteDelay is a test seam: a per-event artificial write
	// stall in the span stream loop, forcing the slow-consumer drop
	// path deterministically. Zero in production.
	streamWriteDelay time.Duration
	// applyGate is a test seam: when non-nil it is called while an
	// /apply request holds its in-flight slot, so overload tests pin a
	// slot deterministically. Nil in production.
	applyGate func()
}

// New builds a Server over the shared observability plumbing.
func New(opts Options) *Server {
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(8192)
	}
	if opts.Namespace == "" {
		opts.Namespace = "arcs"
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 1024
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 64
	}
	if opts.QualityTestN == 0 {
		opts.QualityTestN = 5000
	}
	if opts.ApplyMaxInFlight <= 0 {
		opts.ApplyMaxInFlight = 64
	}
	if opts.ApplyTimeout <= 0 {
		opts.ApplyTimeout = 5 * time.Second
	}
	if opts.ApplyBreakerThreshold <= 0 {
		opts.ApplyBreakerThreshold = 5
	}
	if opts.ApplyBreakerCooldown <= 0 {
		opts.ApplyBreakerCooldown = 5 * time.Second
	}
	s := &Server{
		reg:       opts.Registry,
		flight:    opts.Flight,
		harvester: opts.Harvester,
		tee:       opts.Tee,
		namespace: opts.Namespace,
		csvRoot:   opts.CSVRoot,
		subBuf:    opts.SubscriberBuffer,
		maxRuns:   opts.MaxRuns,
		qualityN:  opts.QualityTestN,
		runs:      make(map[string]*Run),

		defMemBudget: opts.MemBudget,
		defBackend:   opts.CountsBackend,

		mRunsStarted:  opts.Registry.Counter("serve_runs_started_total"),
		mRunsDegraded: opts.Registry.Counter("serve_runs_degraded_total"),
		mRunsCanceled: opts.Registry.Counter("serve_runs_canceled_total"),
		mRunsFailed:   opts.Registry.Counter("serve_runs_failed_total"),
		mStreamDrops:  opts.Registry.Counter("serve_stream_dropped_total"),
		mHTTPReqs:     opts.Registry.Counter("serve_http_requests_total"),
		mHTTPLatency:  opts.Registry.Histogram("serve_http_request_seconds"),

		models:       opts.Models,
		applySem:     make(chan struct{}, opts.ApplyMaxInFlight),
		applyTimeout: opts.ApplyTimeout,
		applyBreaker: &breaker{
			threshold: opts.ApplyBreakerThreshold,
			cooldown:  opts.ApplyBreakerCooldown,
			now:       time.Now,
			mTripped:  opts.Registry.Counter("apply_breaker_tripped_total"),
		},

		mApplyReqs:        opts.Registry.Counter("apply_requests_total"),
		mApplyShed:        opts.Registry.Counter("apply_shed_total"),
		mApplyDeadline:    opts.Registry.Counter("apply_deadline_exceeded_total"),
		mApplyErrors:      opts.Registry.Counter("apply_errors_total"),
		mApplyBreakerOpen: opts.Registry.Counter("apply_breaker_open_total"),
		mApplyTuples:      opts.Registry.Counter("apply_tuples_total"),
		mApplyFallback:    opts.Registry.Counter("apply_json_fallback_total"),
		gApplyInFlight:    opts.Registry.Gauge("apply_in_flight"),
		hApplySeconds:     opts.Registry.Histogram("apply_seconds"),
	}
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz state; a draining daemon sets false so load
// balancers stop routing while in-flight requests and runs complete.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// CancelAll requests cancellation of every run still in flight, for
// shutdown. It does not wait; callers that need completion select on
// each run's Done.
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if !r.terminal() {
			r.Cancel()
		}
	}
}

// Runs snapshots all retained runs in submission order.
func (s *Server) Runs() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id])
	}
	return out
}

// lookup resolves a run by ID, nil when unknown or evicted.
func (s *Server) lookup(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Handler returns the full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /runs/{id}/spans", s.handleSpans)
	mux.HandleFunc("POST /models", s.handlePublishModel)
	mux.HandleFunc("GET /models", s.handleListModels)
	mux.HandleFunc("GET /models/{id}", s.handleGetModel)
	mux.HandleFunc("POST /models/{id}/activate", s.handleActivateModel)
	mux.HandleFunc("POST /apply", s.handleApply)
	mux.HandleFunc("GET /debug/flightrecord", s.handleFlightRecord)
	mux.Handle("GET /debug/vars", expvar.Handler())
	// net/http/pprof registers on the default mux; mount its handlers
	// explicitly so arcsd's mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// instrument wraps the mux with request counting and latency tracking.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mHTTPReqs.Inc()
		next.ServeHTTP(w, r)
		s.mHTTPLatency.Observe(time.Since(start).Seconds())
	})
}

// handleMetrics renders the live registry as Prometheus text, sampling
// the runtime gauges first so every scrape carries fresh GC/heap state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.harvester.Sample()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error here means the scraper hung up; nothing to recover.
	_ = obs.WritePrometheus(w, s.reg.Snapshot(), s.namespace)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleSubmit accepts a JobSpec, spawns the run, and answers 202 with
// the run ID and its endpoints.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining; not accepting new runs", http.StatusServiceUnavailable)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := spec.validate(s.csvRoot); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}

	id := fmt.Sprintf("r%06d", s.seq.Add(1))
	fanout := obs.NewFanout(s.flight.RunSink(id), s.tee)
	fanout.SetDropCounter(s.mStreamDrops)
	observer := obs.NewWithRegistry(fanout, s.reg)

	ctx, cancel := context.WithCancel(context.Background())
	if spec.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutSec*float64(time.Second)))
	}
	run := &Run{
		ID:        id,
		fanout:    fanout,
		cancel:    cancel,
		done:      make(chan struct{}),
		spec:      spec,
		state:     StatePending,
		submitted: time.Now(),
	}
	s.mu.Lock()
	s.runs[id] = run
	s.order = append(s.order, id)
	s.evictLocked()
	s.mu.Unlock()

	go s.execute(ctx, run, observer)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{
		"id":     id,
		"status": "/runs/" + id,
		"spans":  "/runs/" + id + "/spans",
	})
}

// evictLocked drops the oldest finished runs past the retention bound.
// Caller holds s.mu.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.maxRuns
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.runs[id].terminal() {
			delete(s.runs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.Runs()
	statuses := make([]Status, 0, len(runs))
	for _, run := range runs {
		statuses = append(statuses, run.Status())
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	writeJSON(w, map[string]any{"runs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, run.Status())
}

// handleCancel requests cooperative cancellation; 202 while the pipeline
// drains to its next checkpoint, 200 if the run had already finished.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	if run.terminal() {
		writeJSON(w, map[string]string{"id": run.ID, "state": run.State()})
		return
	}
	run.Cancel()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"id": run.ID, "state": "canceling"})
}

// handleFlightRecord dumps the ring buffer as JSONL, optionally filtered
// to one run with ?run=<id> — the post-hoc triage surface for runs that
// degraded or were cancelled before anyone attached a stream.
func (s *Server) handleFlightRecord(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.flight.WriteJSONL(w, r.URL.Query().Get("run")); err != nil {
		// Mid-stream failure; the truncated dump is still useful.
		return
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
