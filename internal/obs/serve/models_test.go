package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"arcs/internal/obs"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
)

// newModelServer is newTestServer plus a fresh on-disk model registry
// sharing the server's metrics registry.
func newModelServer(t *testing.T, opts Options) (*Server, *httptest.Server, *registry.Registry) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	models, err := registry.Open(t.TempDir(), registry.Options{Metrics: opts.Registry})
	if err != nil {
		t.Fatal(err)
	}
	opts.Models = models
	s, ts := newTestServer(t, opts)
	return s, ts, models
}

// modelDoc is a valid model document matching the synth schema.
func modelDoc() string {
	m := segment.Model{
		XAttr: "age", YAttr: "salary",
		CritAttr: "group", CritValue: "A",
		MinSupport: 0.1, MinConfidence: 0.5,
		Rules: []segment.Rule{
			{XLo: 20, XHi: 40, YLo: 50, YHi: 100, Support: 0.2, Confidence: 0.9},
		},
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

// post sends a JSON body and returns status plus decoded object.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	_ = json.Unmarshal(raw, &out)
	if out == nil {
		out = map[string]any{"_raw": string(raw)}
	}
	return resp.StatusCode, out
}

func TestModelUploadActivateApply(t *testing.T) {
	_, ts, models := newModelServer(t, Options{})

	code, body := post(t, ts, "/models", `{"model": `+modelDoc()+`, "note": "uploaded", "activate": true}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /models = %d: %v", code, body)
	}
	if body["id"] != "m000001" || body["active"] != true {
		t.Fatalf("publish response = %v", body)
	}
	if models.ActiveID() != "m000001" {
		t.Fatalf("registry active = %q", models.ActiveID())
	}

	code, body = post(t, ts, "/apply", `{"tuple": {"age": 30, "salary": 75}}`)
	if code != http.StatusOK || body["covered"] != true {
		t.Fatalf("apply tuple = %d %v, want covered", code, body)
	}
	code, body = post(t, ts, "/apply", `{"points": [[30, 75], [55, 75], [21, 51]]}`)
	if code != http.StatusOK {
		t.Fatalf("apply points = %d %v", code, body)
	}
	if body["matched"] != float64(2) || body["total"] != float64(3) {
		t.Fatalf("apply points result = %v, want 2/3 matched", body)
	}
	results, _ := body["results"].([]any)
	if len(results) != 3 || results[0] != true || results[1] != false || results[2] != true {
		t.Fatalf("per-point results = %v", results)
	}
}

func TestModelListAndGet(t *testing.T) {
	_, ts, _ := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`}`)
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)

	code, body := post(t, ts, "/models/m000002/activate", "")
	if code != http.StatusOK {
		t.Fatalf("re-activate = %d %v", code, body)
	}
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Active string                 `json:"active"`
		Models []registry.VersionInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Active != "m000002" || len(list.Models) != 2 {
		t.Fatalf("GET /models = %+v", list)
	}

	resp, err = http.Get(ts.URL + "/models/m000001")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"x_attr": "age"`) {
		t.Fatalf("GET /models/m000001 = %d: %s", resp.StatusCode, raw)
	}
	resp, err = http.Get(ts.URL + "/models/m000099")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown model = %d, want 404", resp.StatusCode)
	}
}

func TestModelPublishFromRun(t *testing.T) {
	s, ts, models := newModelServer(t, Options{})
	id := submit(t, ts, synthSpec())
	if st := waitTerminal(t, s, ts, id); st.State != StateDone {
		t.Fatalf("run ended %q", st.State)
	}

	code, body := post(t, ts, "/models", fmt.Sprintf(`{"run": %q, "activate": true}`, id))
	if code != http.StatusCreated {
		t.Fatalf("publish from run = %d: %v", code, body)
	}
	mid, _ := body["id"].(string)
	m, man, err := models.Load(mid)
	if err != nil {
		t.Fatal(err)
	}
	if man.SourceRun != id {
		t.Fatalf("manifest source_run = %q, want %s", man.SourceRun, id)
	}
	if m.CritValue != "A" || len(m.Rules) == 0 {
		t.Fatalf("published model = %+v", m)
	}
	// The mined model serves real traffic end to end.
	code, resp := post(t, ts, "/apply", `{"points": [[30, 75], [55, 75]]}`)
	if code != http.StatusOK || resp["model"] != mid {
		t.Fatalf("apply after publish-from-run = %d %v", code, resp)
	}
	// The hot swap landed in the flight recorder for post-hoc triage.
	var swaps int
	for _, ev := range s.flight.Snapshot("models") {
		if ev.Event.Name == "model.swap" {
			swaps++
		}
	}
	if swaps != 1 {
		t.Fatalf("flight recorder has %d model.swap events, want 1", swaps)
	}

	// Publishing from an unknown or unfinished run fails cleanly.
	if code, _ := post(t, ts, "/models", `{"run": "r999999"}`); code != http.StatusNotFound {
		t.Fatalf("publish from unknown run = %d, want 404", code)
	}
}

func TestModelEndpointsWithoutRegistry(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, probe := range []struct{ method, path string }{
		{"POST", "/models"}, {"GET", "/models"}, {"POST", "/apply"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s without registry = %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
	}
}

func TestApplyWithoutActiveModel(t *testing.T) {
	_, ts, _ := newModelServer(t, Options{})
	code, body := post(t, ts, "/apply", `{"tuple": {"age": 1, "salary": 1}}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("apply without active model = %d %v, want 503", code, body)
	}
}

func TestChaosApplyOverloadShedsWith429(t *testing.T) {
	s, ts, _ := newModelServer(t, Options{ApplyMaxInFlight: 1})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)

	entered := make(chan struct{})
	release := make(chan struct{})
	s.applyGate = func() {
		entered <- struct{}{}
		<-release
	}

	first := make(chan int)
	go func() {
		code, _ := post(t, ts, "/apply", `{"tuple": {"age": 30, "salary": 75}}`)
		first <- code
	}()
	<-entered // request 1 now owns the only in-flight slot

	// With the slot pinned, the next request must shed immediately —
	// 429 with Retry-After — rather than queue behind it.
	resp, err := http.Post(ts.URL+"/apply", "application/json",
		strings.NewReader(`{"tuple": {"age": 30, "salary": 75}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded apply = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("pinned request finished %d, want 200", code)
	}
	if got := s.reg.Counter("apply_shed_total").Value(); got != 1 {
		t.Fatalf("apply_shed_total = %d, want 1", got)
	}
	if got := s.reg.Counter("apply_requests_total").Value(); got != 2 {
		t.Fatalf("apply_requests_total = %d, want 2", got)
	}
}

func TestChaosApplyDeadlineExceeded(t *testing.T) {
	s, ts, _ := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)
	// The gate burns the 1ms request deadline while the slot is held;
	// the scoring loop then hits its cancellation checkpoint.
	s.applyGate = func() { time.Sleep(20 * time.Millisecond) }

	var pts strings.Builder
	pts.WriteString(`{"timeout_ms": 1, "points": [`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			pts.WriteString(",")
		}
		pts.WriteString("[30,75]")
	}
	pts.WriteString("]}")

	code, body := post(t, ts, "/apply", pts.String())
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired apply = %d %v, want 504", code, body)
	}
	if got := s.reg.Counter("apply_deadline_exceeded_total").Value(); got != 1 {
		t.Fatalf("apply_deadline_exceeded_total = %d, want 1", got)
	}
}

// TestChaosApplyBadTuplesStay422: a tuple that lacks the model's attributes
// is the client's error. Each such body answers 422 and counts on
// apply_errors_total, and however many arrive, the next well-formed
// tuple and points batch are scored.
func TestChaosApplyBadTuplesStay422(t *testing.T) {
	s, ts, _ := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)

	for i := 0; i < 6; i++ {
		if code, body := post(t, ts, "/apply", `{"tuple": {"wrong": 1}}`); code != http.StatusUnprocessableEntity {
			t.Fatalf("bad tuple %d = %d %v, want 422", i+1, code, body)
		}
	}
	if got := s.reg.Counter("apply_errors_total").Value(); got != 6 {
		t.Fatalf("apply_errors_total = %d, want 6", got)
	}
	if code, body := post(t, ts, "/apply", `{"tuple": {"age": 30, "salary": 75}}`); code != http.StatusOK || body["covered"] != true {
		t.Fatalf("well-formed tuple after bad ones = %d %v, want 200 covered", code, body)
	}
	if code, body := post(t, ts, "/apply", `{"points": [[30, 75], [55, 75]]}`); code != http.StatusOK || body["matched"] != float64(1) {
		t.Fatalf("batch after bad tuples = %d %v, want 200 with 1 matched", code, body)
	}
}

func TestChaosActivateCorruptRollsBackOverHTTP(t *testing.T) {
	s, ts, models := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)
	post(t, ts, "/models", `{"model": `+modelDoc()+`}`)

	// m000002 rots on disk before anyone activates it.
	path := filepath.Join(models.Dir(), "m000002.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	code, body := post(t, ts, "/models/m000002/activate", "")
	if code != http.StatusConflict {
		t.Fatalf("activating corrupt model = %d %v, want 409", code, body)
	}
	if body["active"] != "m000001" {
		t.Fatalf("rollback response = %v, want active m000001", body)
	}
	// The old model never stopped serving.
	if code, resp := post(t, ts, "/apply", `{"tuple": {"age": 30, "salary": 75}}`); code != http.StatusOK || resp["model"] != "m000001" {
		t.Fatalf("apply after rollback = %d %v", code, resp)
	}
	// The quarantine is visible, and the failed swap was recorded.
	if code, resp := post(t, ts, "/models", `{"model": `+modelDoc()+`}`); code != http.StatusCreated {
		t.Fatalf("publish after rollback = %d %v", code, resp)
	}
	var failed int
	for _, ev := range s.flight.Snapshot("models") {
		if ev.Event.Name == "model.swap.failed" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("flight recorder has %d model.swap.failed events, want 1", failed)
	}
	if got := s.reg.Counter("models_quarantined_total").Value(); got != 1 {
		t.Fatalf("models_quarantined_total = %d, want 1", got)
	}
}

func TestChaosApplyCancelLeaksNoGoroutines(t *testing.T) {
	s, ts, _ := newModelServer(t, Options{ApplyMaxInFlight: 2})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)
	// Warm up the client pool and handler path, then drop keep-alive
	// connections so the baseline counts only steady-state goroutines.
	post(t, ts, "/apply", `{"tuple": {"age": 30, "salary": 75}}`)
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	s.applyGate = func() { time.Sleep(5 * time.Millisecond) }
	for i := 0; i < 40; i++ {
		// A mix of shed, expired, and successful requests, some with the
		// client hanging up first.
		body := `{"timeout_ms": 1, "points": [` + strings.Repeat("[30,75],", 4999) + `[30,75]]}`
		if i%3 == 0 {
			body = `{"tuple": {"age": 30, "salary": 75}}`
		}
		go func(b string) {
			resp, err := http.Post(ts.URL+"/apply", "application/json", strings.NewReader(b))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Idle keep-alive connections hold a goroutine on each side;
		// they are pool reuse, not leaks, so drop them before counting.
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d; stacks:\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
