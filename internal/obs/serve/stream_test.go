package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"arcs/internal/obs"
)

// bigSpec is a run slow enough that streams attach while it is in
// flight.
const bigSpec = `{"synth":{"function":2,"n":300000,"seed":1,"perturbation":0.05,"frac_a":0.4},
	"x":"age","y":"salary","crit":"group","value":"A","bins":50}`

func TestObsStreamNDJSONLiveRun(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, bigSpec)

	resp, err := http.Get(ts.URL + "/runs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	names := readNDJSONStream(t, sc)
	if len(names) == 0 {
		t.Fatal("stream delivered no events")
	}
	if names[len(names)-1] != "stream.end" {
		t.Fatalf("stream ended with %q, want stream.end trailer", names[len(names)-1])
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"run", "mine-final", "verify-final"} {
		if !seen[want] {
			t.Errorf("live stream lacks %s span", want)
		}
	}
	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("streamed run ended %q", st.State)
	}
}

// gateSink, used as a server's Tee, holds the first event a run emits
// until the channel is closed; later events pass straight through.
type gateSink chan struct{}

func (g gateSink) Emit(obs.Event) { <-g }

// TestObsStreamMatchesFlightRecord checks stream/trace consistency: the
// spans a live subscriber received are the same records the flight
// recorder retained for that run (modulo the stream.end trailer and any
// ring eviction — the test ring is large enough to retain everything).
func TestObsStreamMatchesFlightRecord(t *testing.T) {
	flight := obs.NewFlightRecorder(65536)
	gate := make(gateSink)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Options{Flight: flight, Tee: gate})
	// Registered after the server's cleanup, so it runs first and a
	// failed test never leaves the run blocked.
	t.Cleanup(release)
	id := submit(t, ts, synthSpec())

	// The run is held at its first event until the stream is attached:
	// the response headers go out only after the subscription, so the
	// small run cannot finish its late phases before the stream sees
	// them.
	resp, err := http.Get(ts.URL + "/runs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	release()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	streamed := readNDJSONStream(t, sc)
	waitTerminal(t, s, ts, id)

	recorded := map[string]int{}
	for _, fe := range flight.Snapshot(id) {
		recorded[fe.Event.Name]++
	}
	counts := map[string]int{}
	for _, n := range streamed {
		if n == "stream.end" {
			continue
		}
		counts[n]++
	}
	// Every streamed record must be in the flight record, and the
	// late-run spans must match exactly.
	for name, n := range counts {
		if recorded[name] < n {
			t.Errorf("streamed %d %q events but flight record holds %d", n, name, recorded[name])
		}
	}
	for _, name := range []string{"mine-final", "verify-final"} {
		if counts[name] != recorded[name] {
			t.Errorf("%s: streamed %d, recorded %d", name, counts[name], recorded[name])
		}
	}
}

func TestObsStreamSSEFraming(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, synthSpec())

	resp, err := http.Get(ts.URL + "/runs/" + id + "/spans?format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	events, datas := 0, 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
		case strings.HasPrefix(line, "data: "):
			datas++
			var rec struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &rec); err != nil {
				t.Fatalf("SSE data is not JSON: %v", err)
			}
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if events == 0 || events != datas {
		t.Fatalf("SSE framing: %d event lines, %d data lines", events, datas)
	}
	waitTerminal(t, s, ts, id)
}

// TestObsStreamClientDisconnectMidRun drops the HTTP client while the
// run is still mining; the run must finish unaffected and the
// subscriber must detach (no goroutine wedged on a dead connection).
func TestObsStreamClientDisconnectMidRun(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, bigSpec)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/runs/"+id+"/spans", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little to prove the stream was live, then hang up.
	buf := make([]byte, 1024)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("no live stream before disconnect: %v", err)
	}
	cancel()
	resp.Body.Close()

	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("run ended %q after client disconnect, want done", st.State)
	}
	// The handler unsubscribed on its way out; the fan-out must accept
	// and close a fresh subscriber cleanly (Close already ran).
	if sub := s.lookup(id).fanout.Subscribe(1); sub != nil {
		t.Fatal("fanout still open after run completion")
	}
}

// TestObsStreamSlowConsumerDrops forces the drop path: a one-event
// subscriber buffer plus an artificial per-write stall makes the
// subscriber fall behind a probe-heavy run, so events must be dropped
// (never blocking the miner) and accounted on the stream.end trailer
// and the run status.
func TestObsStreamSlowConsumerDrops(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{Registry: reg, SubscriberBuffer: 1})
	s.streamWriteDelay = 2 * time.Millisecond
	id := submit(t, ts, bigSpec)

	resp, err := http.Get(ts.URL + "/runs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var trailerDropped string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if rec.Name == "stream.end" {
			trailerDropped = rec.Attrs["dropped"]
		}
	}
	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("run with slow consumer ended %q, want done (drops must not stall it)", st.State)
	}
	if trailerDropped == "" || trailerDropped == "0" {
		t.Fatalf("stream.end dropped=%q, want a positive drop count", trailerDropped)
	}
	if st.StreamDropped == 0 {
		t.Fatal("run status does not account the stream drops")
	}
	if got := reg.Counter("serve_stream_dropped_total").Value(); got == 0 {
		t.Fatal("serve_stream_dropped_total not bumped")
	}
}

// TestObsStreamReplayAfterCompletion attaches after the run finished:
// the handler replays the flight record instead of a live stream.
func TestObsStreamReplayAfterCompletion(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, synthSpec())
	waitTerminal(t, s, ts, id)

	resp, err := http.Get(ts.URL + "/runs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("replay Content-Type = %q", ct)
	}
	tr, err := obs.ReadTrace(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range tr.Events {
		seen[e.Name] = true
	}
	for _, want := range []string{"init", "run", "mine-final", "verify-final"} {
		if !seen[want] {
			t.Errorf("replayed trace lacks %s span", want)
		}
	}
}
