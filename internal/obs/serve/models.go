package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"arcs/internal/cancelcheck"
	"arcs/internal/obs"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
)

// publishRequest is the body of POST /models: either a finished run to
// publish a result from, or a direct model document upload.
type publishRequest struct {
	// Run names a finished mining run whose result becomes the model.
	Run string `json:"run,omitempty"`
	// Value picks the criterion value when the run segmented several;
	// optional when the run produced exactly one result.
	Value string `json:"value,omitempty"`
	// Model is a direct segment-model document upload, validated
	// through the same segment.Read path as every other load.
	Model json.RawMessage `json:"model,omitempty"`
	// Note is free-form provenance recorded in the manifest.
	Note string `json:"note,omitempty"`
	// Activate additionally activates the published version.
	Activate bool `json:"activate,omitempty"`
}

// applyRequest is the body of POST /apply: one named tuple or a
// positional batch, plus an optional per-request deadline.
type applyRequest struct {
	// Tuple maps attribute names to values; it must contain the active
	// model's x and y attributes.
	Tuple map[string]float64 `json:"tuple,omitempty"`
	// Points are positional [x, y] pairs in the model's attribute
	// space — the bulk path, scored allocation-free per point.
	Points [][2]float64 `json:"points,omitempty"`
	// TimeoutMS lowers the server's per-request deadline; it can never
	// raise it past the configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// handlePublishModel publishes a model into the registry, from a
// finished run's result or a direct upload.
func (s *Server) handlePublishModel(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		http.Error(w, "no model registry configured (start arcsd with -registry)", http.StatusServiceUnavailable)
		return
	}
	var req publishRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	var model *segment.Model
	switch {
	case req.Run != "" && req.Model != nil:
		http.Error(w, "set run or model, not both", http.StatusBadRequest)
		return
	case req.Run != "":
		var err error
		if model, err = s.modelFromRun(req.Run, req.Value); err != nil {
			status := http.StatusUnprocessableEntity
			if errors.Is(err, errUnknownRun) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
	case req.Model != nil:
		var err error
		if model, err = segment.Read(bytes.NewReader(req.Model)); err != nil {
			http.Error(w, "invalid model: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
	default:
		http.Error(w, "set run (publish a finished run's result) or model (direct upload)", http.StatusBadRequest)
		return
	}

	info, err := s.models.Publish(model, registry.PublishMeta{SourceRun: req.Run, Note: req.Note})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := map[string]any{"id": info.ID, "state": info.State, "manifest": info.Manifest}
	status := http.StatusCreated
	if req.Activate {
		if _, err := s.activate(info.ID); err != nil {
			// The publish stood; only the activation failed. Surface both.
			resp["activation_error"] = err.Error()
			status = http.StatusConflict
		} else {
			resp["active"] = true
		}
	}
	writeJSONStatus(w, status, resp)
}

// errUnknownRun distinguishes a 404 from a 422 in publish-from-run.
var errUnknownRun = errors.New("unknown run")

// modelFromRun builds a segment model from a finished run's mined
// result — the daemon-side equivalent of `arcs -save`.
func (s *Server) modelFromRun(id, value string) (*segment.Model, error) {
	run := s.lookup(id)
	if run == nil {
		return nil, fmt.Errorf("%w %q", errUnknownRun, id)
	}
	if !run.terminal() {
		return nil, fmt.Errorf("run %s is still %s; publish needs a finished run", id, run.State())
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	if len(run.results) == 0 {
		return nil, fmt.Errorf("run %s finished %s with no results", id, run.state)
	}
	label := value
	if label == "" {
		if len(run.results) > 1 {
			return nil, fmt.Errorf("run %s has %d results; set value to pick one", id, len(run.results))
		}
		for l := range run.results {
			label = l
		}
	}
	res, ok := run.results[label]
	if !ok {
		return nil, fmt.Errorf("run %s has no result for value %q", id, label)
	}
	model, err := segment.New(res.Rules, res.MinSupport, res.MinConfidence)
	if err != nil {
		return nil, fmt.Errorf("run %s result %q: %w", id, label, err)
	}
	return model, nil
}

// handleListModels lists every known version with its state, plus the
// active one — quarantined versions show up here with their reasons
// instead of disappearing.
func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		http.Error(w, "no model registry configured (start arcsd with -registry)", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]any{
		"active": s.models.ActiveID(),
		"models": s.models.List(),
	})
}

// handleGetModel returns one version's state and, when it loads
// cleanly, the model document itself.
func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		http.Error(w, "no model registry configured (start arcsd with -registry)", http.StatusServiceUnavailable)
		return
	}
	id := r.PathValue("id")
	var info *registry.VersionInfo
	for _, v := range s.models.List() {
		if v.ID == id {
			vi := v
			info = &vi
			break
		}
	}
	if info == nil {
		http.Error(w, "unknown model version", http.StatusNotFound)
		return
	}
	resp := map[string]any{"id": info.ID, "state": info.State, "active": info.Active, "manifest": info.Manifest}
	if info.Reason != "" {
		resp["reason"] = info.Reason
	}
	if model, _, err := s.models.Load(id); err == nil {
		resp["model"] = model
	} else {
		resp["state"] = registry.StateQuarantined
		resp["reason"] = err.Error()
	}
	writeJSON(w, resp)
}

// handleActivateModel re-validates a version from disk and hot-swaps
// it in. On any failure the previous model keeps serving and the
// response names it, so an operator activating a corrupt version sees
// the rollback, not an outage.
func (s *Server) handleActivateModel(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		http.Error(w, "no model registry configured (start arcsd with -registry)", http.StatusServiceUnavailable)
		return
	}
	id := r.PathValue("id")
	snap, err := s.activate(id)
	if err != nil {
		writeJSONStatus(w, http.StatusConflict, map[string]any{
			"error":  err.Error(),
			"active": s.models.ActiveID(),
		})
		return
	}
	writeJSON(w, map[string]any{"active": snap.ID})
}

// activate performs the swap and records it in the flight recorder, so
// a post-hoc flight dump shows exactly when traffic moved between
// versions.
func (s *Server) activate(id string) (*registry.Snapshot, error) {
	prev := s.models.ActiveID()
	snap, err := s.models.Activate(id)
	if err != nil {
		s.flight.EmitRun("models", obs.Event{
			Type: obs.EventInstant, Name: "model.swap.failed", Start: time.Now(),
			Attrs: []obs.Attr{obs.Str("model", id), obs.Str("active", prev), obs.Str("err", err.Error())},
		})
		return nil, err
	}
	s.flight.EmitRun("models", obs.Event{
		Type: obs.EventInstant, Name: "model.swap", Start: time.Now(),
		Attrs: []obs.Attr{obs.Str("model", snap.ID), obs.Str("previous", prev)},
	})
	return snap, nil
}

// handleApply is the hot data-plane endpoint: score one tuple or a
// positional batch against the active model. Admission control runs
// before any work: a full in-flight limiter sheds with 429 +
// Retry-After instead of queuing, and the per-request deadline
// propagates into the scoring loop so a stuck client cannot pin a slot
// past its budget.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	s.mApplyReqs.Inc()
	if s.models == nil {
		http.Error(w, "no model registry configured (start arcsd with -registry)", http.StatusServiceUnavailable)
		return
	}
	select {
	case s.applySem <- struct{}{}:
		defer func() { <-s.applySem }()
	default:
		s.mApplyShed.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: apply in-flight limit reached", http.StatusTooManyRequests)
		return
	}
	s.gApplyInFlight.Add(1)
	defer s.gApplyInFlight.Add(-1)

	// One snapshot per request: a concurrent activation swaps the
	// pointer for later requests, never for this one mid-batch.
	snap := s.models.Active()
	if snap == nil {
		http.Error(w, "no active model (publish and activate one first)", http.StatusServiceUnavailable)
		return
	}

	buf := applyPool.Get().(*applyBuffers)
	defer buf.release()
	req, fast, err := buf.read(w, r)
	if !fast {
		s.mApplyFallback.Inc()
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if (req.Tuple == nil) == (req.Points == nil) {
		http.Error(w, "set exactly one of tuple or points", http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout(s.applyTimeout, req.TimeoutMS))
	defer cancel()
	if s.applyGate != nil {
		// Test seam: hold the in-flight slot (overload tests) and burn
		// the request deadline (deadline tests) deterministically.
		s.applyGate()
	}

	start := time.Now()
	if req.Tuple != nil {
		x, okx := req.Tuple[snap.Model.XAttr]
		y, oky := req.Tuple[snap.Model.YAttr]
		if !okx || !oky {
			s.applyFailure(w, snap.ID, fmt.Sprintf(
				"tuple lacks the active model's attributes (%s, %s)",
				snap.Model.XAttr, snap.Model.YAttr))
			return
		}
		covered := snap.Covers(x, y)
		s.mApplyTuples.Inc()
		s.hApplySeconds.Observe(time.Since(start).Seconds())
		writeJSON(w, map[string]any{"model": snap.ID, "covered": covered})
		return
	}

	out := slices.Grow(buf.results[:0], len(req.Points))[:len(req.Points)]
	buf.results = out
	matched, err := snap.Model.ApplyPointsContext(ctx, req.Points, out)
	if err != nil {
		if cancelcheck.IsCancel(err) {
			s.mApplyDeadline.Inc()
			http.Error(w, fmt.Sprintf("deadline exceeded after scoring %d of %d points", matched, len(req.Points)), http.StatusGatewayTimeout)
			return
		}
		s.applyFailure(w, snap.ID, err.Error())
		return
	}
	s.mApplyTuples.Add(int64(len(req.Points)))
	s.hApplySeconds.Observe(time.Since(start).Seconds())
	buf.resp = appendPointsResponse(buf.resp[:0], snap.ID, matched, out)
	w.Header().Set("Content-Type", "application/json")
	// A write error means the client hung up; nothing to recover.
	_, _ = w.Write(buf.resp)
}

// requestTimeout is an /apply request's deadline: the server's ceiling,
// lowered to timeoutMS milliseconds when that is positive and shorter.
// It compares whole milliseconds, because timeoutMS·10⁶ ns overflows a
// Duration above about 9.2e12 ms.
func requestTimeout(ceiling time.Duration, timeoutMS int) time.Duration {
	if ms := int64(timeoutMS); ms > 0 && ms <= int64(ceiling/time.Millisecond) {
		return time.Duration(ms) * time.Millisecond
	}
	return ceiling
}

// applyFailure answers a bind/apply error: a request the active model
// cannot score, such as a tuple without its attributes.
func (s *Server) applyFailure(w http.ResponseWriter, modelID, msg string) {
	s.mApplyErrors.Inc()
	http.Error(w, "apply against "+modelID+": "+msg, http.StatusUnprocessableEntity)
}

// writeJSONStatus is writeJSON with an explicit status code.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, v)
}
