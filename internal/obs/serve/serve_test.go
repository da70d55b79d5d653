package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/synth"
)

// newTestServer builds a Server with small limits and its HTTP harness.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(4096)
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.CancelAll()
		for _, r := range s.Runs() {
			<-r.Done()
		}
		ts.Close()
	})
	return s, ts
}

// synthSpec is a small job that completes in well under a second.
func synthSpec() string {
	return `{"synth":{"function":2,"n":5000,"seed":1,"perturbation":0.05,"frac_a":0.4},
	         "x":"age","y":"salary","crit":"group","value":"A","bins":20}`
}

// submit posts a spec and returns the run ID.
func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, buf.String())
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ID == "" {
		t.Fatal("submit response carries no run ID")
	}
	return body.ID
}

// getStatus fetches /runs/{id} and decodes it.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the run leaves pending/running.
func waitTerminal(t *testing.T, s *Server, ts *httptest.Server, id string) Status {
	t.Helper()
	run := s.lookup(id)
	if run == nil {
		t.Fatalf("run %s not retained", id)
	}
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("run %s still not terminal", id)
	}
	return getStatus(t, ts, id)
}

func TestObsServeSubmitRunsToCompletion(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, synthSpec())
	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("run ended %q (err %q), want done", st.State, st.Error)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatal("terminal status missing timestamps")
	}
	if len(st.Results) != 1 {
		t.Fatalf("status carries %d results, want 1", len(st.Results))
	}
	res, ok := st.Results["A"].(map[string]any)
	if !ok {
		t.Fatalf("result for A has shape %T", st.Results["A"])
	}
	if _, ok := res["min_support"]; !ok {
		t.Fatal("result JSON lacks min_support — report.JSONResult not wired through")
	}
}

// TestObsServeSynthJobShards: a synth source is the shardable stream, so
// ingest_workers 2 builds the counts on two workers and mines the same
// rules as a sequential build of the same spec.
func TestObsServeSynthJobShards(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	result := func(workers int) map[string]any {
		spec := fmt.Sprintf(`{"synth":{"function":2,"n":5000,"seed":1,"perturbation":0.05,"frac_a":0.4},
		         "x":"age","y":"salary","crit":"group","value":"A","bins":20,"ingest_workers":%d}`, workers)
		st := waitTerminal(t, s, ts, submit(t, ts, spec))
		if st.State != StateDone {
			t.Fatalf("ingest_workers %d: run ended %q (err %q), want done", workers, st.State, st.Error)
		}
		res, ok := st.Results["A"].(map[string]any)
		if !ok {
			t.Fatalf("result for A has shape %T", st.Results["A"])
		}
		return res
	}
	seq, sharded := result(1), result(2)
	if c, _ := sharded["counts"].(map[string]any); c == nil || c["workers"] != 2.0 {
		t.Errorf("ingest_workers 2 built its counts as %v, want workers 2", sharded["counts"])
	}
	if !reflect.DeepEqual(seq["rules"], sharded["rules"]) {
		t.Errorf("sharded rules %v differ from sequential %v", sharded["rules"], seq["rules"])
	}
}

func TestObsServeMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{
		Registry:  reg,
		Harvester: obs.NewRuntimeHarvester(reg),
	})
	id := submit(t, ts, synthSpec())
	waitTerminal(t, s, ts, id)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"arcs_serve_runs_started_total 1",
		"arcs_go_goroutines ",    // harvester gauge, sampled on scrape
		"arcs_phase_run_seconds", // pipeline histogram from the run
		"arcs_serve_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
	// Minimal exposition-format sanity: every non-comment line is
	// "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}

// TestObsServeQualityBlock: a synth run's status carries a quality
// report for the mined value — held-out error, per-rule measures, and
// rectangle recovery, since each spec mines its function's recommended
// pair (Function 3's has the categorical elevel axis, whose truth
// regions and mined rules are both in category-code order) — and the
// quality gauges land on /metrics.
func TestObsServeQualityBlock(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"f2 age×salary", synthSpec()},
		{"f3 age×elevel", `{"synth":{"function":3,"n":5000,"seed":1,"perturbation":0.05,"frac_a":0.4},
		  "x":"age","y":"elevel","crit":"group","value":"A","bins":20}`},
	} {
		reg := obs.NewRegistry()
		s, ts := newTestServer(t, Options{Registry: reg, QualityTestN: 2000})
		id := submit(t, ts, tc.spec)
		st := waitTerminal(t, s, ts, id)
		if st.State != StateDone {
			t.Fatalf("%s: run ended %q (err %q)", tc.name, st.State, st.Error)
		}
		rep, ok := st.Quality["A"]
		if !ok {
			t.Fatalf("%s: status has no quality report for A: %+v", tc.name, st.Quality)
		}
		if rep.TestN != 2000 {
			t.Errorf("%s: quality TestN = %d, want the configured 2000", tc.name, rep.TestN)
		}
		if rep.Rules < 1 || len(rep.RuleMeasures) != rep.Rules {
			t.Errorf("%s: quality rules = %d with %d measures", tc.name, rep.Rules, len(rep.RuleMeasures))
		}
		if rep.ErrorPct < 0 || rep.ErrorPct > 100 {
			t.Errorf("%s: quality error = %g out of range", tc.name, rep.ErrorPct)
		}
		if rep.Recovery == nil {
			t.Fatalf("%s: quality report lacks rectangle recovery on the function's recommended pair", tc.name)
		}
		if rep.Recovery.IoU <= 0 || rep.Recovery.IoU > 1 {
			t.Errorf("%s: recovery IoU = %g out of range", tc.name, rep.Recovery.IoU)
		}

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			"arcs_quality_error_rate_pct",
			"arcs_quality_rules",
			"arcs_quality_recovery_iou",
			"arcs_quality_rule_lift_count",
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: scrape lacks %q", tc.name, want)
			}
		}
	}
}

// TestObsServeQualityDisabled: a negative QualityTestN turns the
// evaluation off without touching the rest of the run.
func TestObsServeQualityDisabled(t *testing.T) {
	s, ts := newTestServer(t, Options{QualityTestN: -1})
	id := submit(t, ts, synthSpec())
	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("run ended %q (err %q)", st.State, st.Error)
	}
	if len(st.Quality) != 0 {
		t.Fatalf("quality evaluation ran despite being disabled: %+v", st.Quality)
	}
}

func TestObsServeCancelDegradesRun(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// A large slow run so the cancel lands mid-flight.
	id := submit(t, ts, `{"synth":{"function":2,"n":400000,"seed":1,"perturbation":0.05,"frac_a":0.4},
		"x":"age","y":"salary","crit":"group","value":"A","bins":50}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /runs/%s = %d", id, resp.StatusCode)
	}
	st := waitTerminal(t, s, ts, id)
	switch st.State {
	case StateCanceled, StateDegraded, StateDone:
		// done is possible if the run beat the cancel; all three prove
		// the terminal-state machinery.
	default:
		t.Fatalf("canceled run ended %q", st.State)
	}
}

func TestObsServeFlightRecordDump(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, synthSpec())
	waitTerminal(t, s, ts, id)

	resp, err := http.Get(ts.URL + "/debug/flightrecord?run=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("flightrecord Content-Type = %q", ct)
	}
	tr, err := obs.ReadTrace(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range tr.Events {
		if e.Attr("run") != id {
			t.Fatalf("filtered dump contains event for run %q", e.Attr("run"))
		}
		names[e.Name] = true
	}
	for _, want := range []string{"init", "run", "mine-final", "verify-final"} {
		if !names[want] {
			t.Errorf("flight record lacks %s span", want)
		}
	}
	// The run's closing FlushMetrics lands in the record too.
	if len(tr.Metrics) == 0 {
		t.Error("flight record carries no metrics event")
	}
}

func TestObsServeHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	s.SetReady(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	// Draining also refuses new submissions.
	resp, err = http.Post(ts.URL+"/runs", "application/json", strings.NewReader(synthSpec()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /runs = %d, want 503", resp.StatusCode)
	}
}

func TestObsServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{CSVRoot: t.TempDir()})
	cases := []struct {
		name, body string
		cause      string // when set, the response must name it
	}{
		{"no source", `{"x":"age","y":"salary","crit":"group"}`, ""},
		{"both sources", `{"csv":{"path":"a.csv"},"synth":{"function":1,"n":10},"x":"a","y":"b","crit":"c"}`, ""},
		{"missing attrs", `{"synth":{"function":1,"n":10}}`, ""},
		{"bad function", `{"synth":{"function":11,"n":10},"x":"a","y":"b","crit":"c"}`, ""},
		{"bad search", `{"synth":{"function":1,"n":10},"x":"a","y":"b","crit":"c","search":"magic"}`, ""},
		{"unknown field", `{"synth":{"function":1,"n":10},"x":"a","y":"b","crit":"c","bogus":1}`, ""},
		{"csv escape", `{"csv":{"path":"../../etc/passwd"},"x":"a","y":"b","crit":"c"}`, ""},
		{"not json", `hello`, ""},
		{"spill backend", `{"synth":{"function":1,"n":10},"x":"a","y":"b","crit":"c","counts_backend":"spill"}`,
			`counts_backend: counts: unknown backend "spill" (want auto, dense or sparse)`},
		// There is one synthetic generator; the field that chose between
		// two is gone, and a spec still sending it is refused by name.
		{"positional synth", `{"synth":{"function":1,"n":10,"positional":true},"x":"a","y":"b","crit":"c"}`,
			`"positional"`},
		// No input a job reads raises a transient error, so the retry
		// budget that could never fire is gone, and refused by name.
		{"retries csv", `{"csv":{"path":"a.csv","retries":2},"x":"a","y":"b","crit":"c"}`, `"retries"`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(body.String(), tc.cause) {
			t.Errorf("%s: response %q does not name %s", tc.name, body.String(), tc.cause)
		}
	}
}

// TestObsServeCSVJobMisspelledAttribute: a CSV job checks x, y and crit
// against the inferred header, as cmd/arcs does, so a misspelled one
// fails the job before any row is loaded or streamed, with the field
// ahead of the schema's error.
func TestObsServeCSVJobMisspelledAttribute(t *testing.T) {
	dir := t.TempDir()
	st, err := synth.NewStream(synth.Config{Function: 2, N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	if err := dataset.WriteCSV(&data, st.Source()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f2.csv")
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tee := &obs.MemSink{}
	s, ts := newTestServer(t, Options{Tee: tee, CSVRoot: dir})
	names := map[string]string{"x": "age", "y": "salary", "crit": "group"}
	for _, field := range []string{"x", "y", "crit"} {
		for _, stream := range []bool{false, true} {
			attrs := map[string]string{}
			for k, v := range names {
				attrs[k] = v
			}
			attrs[field] += "e"
			id := submit(t, ts, fmt.Sprintf(`{"csv":{"path":%q,"stream":%t},"x":%q,"y":%q,"crit":%q}`,
				path, stream, attrs["x"], attrs["y"], attrs["crit"]))
			status := waitTerminal(t, s, ts, id)
			want := fmt.Sprintf("%s: dataset: no attribute %q (have [", field, attrs[field])
			if status.State != StateFailed || !strings.HasPrefix(status.Error, want) {
				t.Errorf("%s misspelled (stream %t): run ended %s with %q, want failed with %q...", field, stream, status.State, status.Error, want)
			}
		}
	}
	if loads := tee.Spans("dataset.load"); len(loads) != 0 {
		t.Errorf("%d dataset.load spans, want none: no job gets past the header", len(loads))
	}
}

// TestObsServeCSVJob: a CSV job reads its file the way cmd/arcs does.
// One dirty file, mined once loaded into memory and once streamed,
// yields the same rules; the loaded run reports its quarantined row.
// Both record their dataset spans carrying the run's ID, which is all a
// shared tee has to attribute them by, and only the loaded one records
// dataset.load.
func TestObsServeCSVJob(t *testing.T) {
	dir := t.TempDir()
	st, err := synth.NewStream(synth.Config{Function: 2, N: 5000, Seed: 1, Perturbation: 0.05, FracA: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	if err := dataset.WriteCSV(&data, st.Source()); err != nil {
		t.Fatal(err)
	}
	// A field-count error, which schema inference skips and every pass
	// quarantines.
	data.WriteString("1,2,3\n")
	path := filepath.Join(dir, "f2.csv")
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	tee := &obs.MemSink{}
	s, ts := newTestServer(t, Options{Tee: tee, CSVRoot: dir})
	spec := func(stream bool) string {
		return fmt.Sprintf(`{"csv":{"path":%q,"stream":%t,"max_bad_rows":1},
		                     "x":"age","y":"salary","crit":"group","value":"A","bins":20}`, path, stream)
	}
	loaded, streamed := submit(t, ts, spec(false)), submit(t, ts, spec(true))
	rules := map[string]string{}
	for _, id := range []string{loaded, streamed} {
		status := waitTerminal(t, s, ts, id)
		if status.State != StateDone {
			t.Fatalf("run %s ended %s (%s), want done", id, status.State, status.Error)
		}
		doc, _ := status.Results["A"].(map[string]any)
		raw, err := json.Marshal(doc["rules"])
		if err != nil {
			t.Fatal(err)
		}
		rules[id] = string(raw)
		if id == loaded && status.RowsQuarantined != 1 {
			t.Errorf("the loaded run quarantined %d rows, want 1", status.RowsQuarantined)
		}
	}
	if rules[loaded] == "null" || rules[loaded] != rules[streamed] {
		t.Errorf("loaded run found rules %s, streamed run %s; want the same rules", rules[loaded], rules[streamed])
	}

	spans := map[string]map[string][]obs.Event{} // span name → run ID → spans
	for _, name := range []string{"dataset.infer", "dataset.load"} {
		spans[name] = map[string][]obs.Event{}
		for _, ev := range tee.Spans(name) {
			if ev.Parent != 0 {
				t.Errorf("%s span has parent %d, want a root span", name, ev.Parent)
			}
			id := ev.Attr("run_id")
			spans[name][id] = append(spans[name][id], ev)
		}
	}
	for _, id := range []string{loaded, streamed} {
		if n := len(spans["dataset.infer"][id]); n != 1 {
			t.Errorf("run %s recorded %d dataset.infer spans carrying its ID, want 1", id, n)
		}
	}
	if loads := spans["dataset.load"][loaded]; len(loads) != 1 {
		t.Errorf("the loaded run recorded %d dataset.load spans carrying its ID, want 1", len(loads))
	} else {
		want := map[string]string{"run_id": loaded, "rows": "5000", "quarantined": "1", "bytes": fmt.Sprint(data.Len())}
		for k, v := range want {
			if got := loads[0].Attr(k); got != v {
				t.Errorf("dataset.load %s = %q, want %q", k, got, v)
			}
		}
	}
	if n := len(spans["dataset.load"][streamed]); n != 0 {
		t.Errorf("the streamed run recorded %d dataset.load spans, want none", n)
	}
	for name, byRun := range spans {
		if n := len(byRun[""]); n != 0 {
			t.Errorf("%d %s spans carry no run_id", n, name)
		}
	}
}

func TestObsServeUnknownRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/runs/r999999", "/runs/r999999/spans"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/r999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown run = %d, want 404", resp.StatusCode)
	}
}

func TestObsServeListAndEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxRuns: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		id := submit(t, ts, synthSpec())
		waitTerminal(t, s, ts, id)
		ids = append(ids, id)
	}
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Runs []Status `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Runs) != 2 {
		t.Fatalf("retained %d runs, want 2 (MaxRuns)", len(body.Runs))
	}
	if s.lookup(ids[0]) != nil {
		t.Fatalf("oldest run %s should have been evicted", ids[0])
	}
}

func TestObsServePprofIndex(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

// TestObsServeConcurrentScrapeDuringRun races /metrics scrapes and
// status polls against an in-flight run — the shared-registry path the
// -race CI job is meant to exercise.
func TestObsServeConcurrentScrapeDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{
		Registry:  reg,
		Harvester: obs.NewRuntimeHarvester(reg),
	})
	id := submit(t, ts, `{"synth":{"function":2,"n":150000,"seed":1,"perturbation":0.05,"frac_a":0.4},
		"x":"age","y":"salary","crit":"group","value":"A","bins":40}`)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/metrics", "/runs/" + id, "/debug/flightrecord"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				var sink bytes.Buffer
				sink.ReadFrom(resp.Body)
				resp.Body.Close()
			}
		}
	}()
	st := waitTerminal(t, s, ts, id)
	<-done
	if st.State != StateDone {
		t.Fatalf("run under scrape load ended %q (err %q)", st.State, st.Error)
	}
}

// readNDJSONStream consumes a span stream to EOF, returning the decoded
// span/event names in order.
func readNDJSONStream(t *testing.T, body *bufio.Scanner) []string {
	t.Helper()
	var names []string
	for body.Scan() {
		line := strings.TrimSpace(body.Text())
		if line == "" {
			continue
		}
		var rec struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		names = append(names, rec.Name)
	}
	return names
}
