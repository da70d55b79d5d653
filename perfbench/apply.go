package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"arcs/internal/core"
	"arcs/internal/obs"
	"arcs/internal/obs/serve"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
	"arcs/internal/synth"
)

// clients is the closed-loop client count of apply-serve. A machine with
// fewer CPUs fails the workload rather than change its traffic.
const clients = 2

// slice is how long the clients run between two calibrations of the
// reference kernel; the timed window is a sequence of slices.
const slice = time.Second

// server is an in-process arcsd serving surface on a loopback port.
type server struct {
	reg    *obs.Registry
	http   *http.Server
	url    string
	served chan error
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// startServer opens a model registry in dir and serves arcsd's routes.
func startServer(dir string) (*server, error) {
	reg := obs.NewRegistry()
	models, err := registry.Open(dir, registry.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		reg:    reg,
		http:   &http.Server{Handler: serve.New(serve.Options{Registry: reg, Models: models}).Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// post sends body and returns the response body, failing on any status
// but want.
func post(c *http.Client, url string, body []byte, want int) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveModel is one apply-serve set-up: start the server, mine the
// group-A model from the file, then publish and activate it through
// POST /models.
func serveModel(b *bench, o *obs.Observer, c *http.Client, dir string, in input) (*server, *segment.Model, error) {
	root := o.Root("bench.setup")
	defer root.End()
	sp := root.Child("serve.start")
	srv, err := startServer(dir)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	model, err := func() (*segment.Model, error) {
		tb, err := loadCSV(root, o, in)
		if err != nil {
			return nil, err
		}
		cfg := hiresConfig(b.size.hiresBins)
		cfg.CritValue = synth.GroupA
		cfg.Observer = o
		sp := root.Child("core.build")
		sys, err := core.NewContext(b.ctx, tb, cfg)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = root.Child("core.run")
		res, err := sys.RunContext(b.ctx)
		sp.End()
		if err != nil {
			return nil, err
		}
		model, err := segment.New(res.Rules, res.MinSupport, res.MinConfidence)
		if err != nil {
			return nil, err
		}

		var doc bytes.Buffer
		if err := model.Write(&doc); err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"model": json.RawMessage(doc.Bytes())})
		if err != nil {
			return nil, err
		}
		sp = root.Child("registry.publish")
		data, err := post(c, srv.url+"/models", body, http.StatusCreated)
		sp.End()
		if err != nil {
			return nil, err
		}
		var published struct{ ID string }
		if err := json.Unmarshal(data, &published); err != nil {
			return nil, fmt.Errorf("decoding publish response: %w", err)
		}
		sp = root.Child("registry.activate")
		_, err = post(c, srv.url+"/models/"+published.ID+"/activate", nil, http.StatusOK)
		sp.End()
		return model, err
	}()
	if err != nil {
		return nil, nil, errors.Join(err, srv.stop())
	}
	return srv, model, nil
}

// applyBody is one pre-encoded /apply request and its expected answer
// from the local model.
type applyBody struct {
	body    []byte
	matched int
	results []bool
	// canonical is the verified response to the warm-up request; a later
	// response with the same bytes needs no decoding.
	canonical []byte
}

// check is the /apply oracle: the response's matched count and
// per-point results must equal segment.Model.ApplyPoints on the same
// points.
func (a *applyBody) check(data []byte) error {
	if a.canonical != nil && bytes.Equal(data, a.canonical) {
		return nil
	}
	var resp struct {
		Total   int    `json:"total"`
		Matched int    `json:"matched"`
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding /apply response: %w", err)
	}
	if resp.Total != len(a.results) || resp.Matched != a.matched || !slices.Equal(resp.Results, a.results) {
		return fmt.Errorf("/apply matched %d of %d, local model matched %d of %d (or per-point results differ)",
			resp.Matched, resp.Total, a.matched, len(a.results))
	}
	return nil
}

// clientStats is one client's account of the timed window.
type clientStats struct {
	attempted int
	failures  []error
	untraced  []float64 // of the current slice
	traced    []float64 // of the current slice
	points    int       // of the current slice
	rtSum     float64   // summed round-trip seconds of successful requests
	next      int       // index of the client's next request
}

// runApply times POST /apply round trips against an in-process server.
// Set-up is server start, model mining, publish and activate.
func runApply(b *bench) error {
	in, err := hiresInput(b)
	if err != nil {
		return err
	}
	if ncpu := runtime.NumCPU(); ncpu < clients {
		return fmt.Errorf("%d clients need at least %d CPUs, have %d", clients, clients, ncpu)
	}
	transport := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	c := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	var srv *server
	var model *segment.Model
	for i := 0; i < b.size.setupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		prev := model
		dir := filepath.Join(b.dir, fmt.Sprintf("registry-%d", i))
		if err := b.setup(func(o *obs.Observer) error {
			srv, model, err = serveModel(b, o, c, dir, in)
			return err
		}); err != nil {
			return err
		}
		if prev != nil && !slices.Equal(prev.Rules, model.Rules) {
			return errors.New("set-up repetitions mined different models")
		}
	}
	defer srv.stop()
	b.tr.markSetupDone()

	// Request bodies: uniform points over the model's domain, encoded
	// before timing starts.
	rng := rand.New(rand.NewSource(b.seed))
	bodies := make([]applyBody, b.size.bodies)
	for k := range bodies {
		pts := make([][2]float64, b.size.batch)
		for i := range pts {
			pts[i] = [2]float64{
				synth.AgeMin + rng.Float64()*(synth.AgeMax-synth.AgeMin),
				synth.SalaryMin + rng.Float64()*(synth.SalaryMax-synth.SalaryMin),
			}
		}
		a := &bodies[k]
		a.results = make([]bool, len(pts))
		a.matched = model.ApplyPoints(pts, a.results)
		if a.body, err = json.Marshal(map[string]any{"points": pts}); err != nil {
			return err
		}
	}
	// Warm-up: every body once, checked in full; its response becomes
	// the canonical bytes later responses are compared with.
	url := srv.url + "/apply"
	for k := range bodies {
		b.attempted++
		data, err := post(c, url, bodies[k].body, http.StatusOK)
		if err == nil {
			err = bodies[k].check(data)
		}
		if err != nil {
			b.fail(fmt.Errorf("warm-up: %w", err))
			continue
		}
		bodies[k].canonical = data
	}

	var o *obs.Observer
	if b.tr != nil {
		o = b.tr.o
	}
	// send runs every client until the slice ends. A traced run traces
	// every other request of each client.
	stats := make([]clientStats, clients)
	for ci := range stats {
		stats[ci].next = ci
	}
	send := func(st *clientStats, end time.Time) {
		for ; time.Now().Before(end); st.next += clients {
			a := &bodies[st.next%len(bodies)]
			traced := o != nil && (st.next/clients)%2 == 1
			var op, sp obs.Span
			if traced {
				op = o.Root("bench.op")
				sp = op.Child("client.request")
			}
			st.attempted++
			t0 := time.Now()
			data, err := post(c, url, a.body, http.StatusOK)
			d := time.Since(t0).Seconds()
			sp.End()
			op.End()
			if err == nil {
				err = a.check(data)
			}
			if err != nil {
				st.failures = append(st.failures, err)
				continue
			}
			st.points += len(a.results)
			st.rtSum += d
			if traced {
				st.traced = append(st.traced, d)
			} else {
				st.untraced = append(st.untraced, d)
			}
		}
	}
	before := srv.reg.Snapshot()
	b.tr.markWindow()
	var rt runtimeSample
	for end := time.Now().Add(b.window); time.Now().Before(end); {
		settle()
		ref := b.calibrate()
		rt0 := readRuntime()
		start := time.Now()
		sliceEnd := start.Add(slice)
		var wg sync.WaitGroup
		b.measurePeak(func() {
			for ci := range stats {
				wg.Add(1)
				go func(st *clientStats) {
					defer wg.Done()
					send(st, sliceEnd)
				}(&stats[ci])
			}
			wg.Wait()
		})
		stop := time.Now()
		d := readRuntime().sub(rt0)
		rt.gcSeconds += d.gcSeconds
		rt.allocBytes += d.allocBytes
		// Take the slice's samples, each paired with the slice's
		// calibration.
		var points, traced int
		for ci := range stats {
			st := &stats[ci]
			for range st.untraced {
				b.opRefs = append(b.opRefs, ref)
			}
			b.untracedOps = append(b.untracedOps, st.untraced...)
			b.tracedOps = append(b.tracedOps, st.traced...)
			points += st.points
			traced += len(st.traced)
			st.untraced, st.traced, st.points = st.untraced[:0], st.traced[:0], 0
		}
		b.rates = append(b.rates, float64(points)/stop.Sub(start).Seconds())
		b.rateRefs = append(b.rateRefs, ref)
		b.tr.addOps(start, stop, traced, runtimeSample{})
	}
	after := srv.reg.Snapshot()
	b.tr.endWindow()

	var rtSum float64
	for _, st := range stats {
		b.attempted += st.attempted
		for _, err := range st.failures {
			b.fail(err)
		}
		rtSum += st.rtSum
	}
	ok := len(b.untracedOps) + len(b.tracedOps)
	b.note("apply_points_per_s", median(b.rates), "1/s", fmt.Sprintf("median of %d one-second slices; %d clients, %d points per request", len(b.rates), clients, b.size.batch))
	b.note("apply_p50_ms", 1000*median(b.untracedOps), "ms", fmt.Sprintf("n=%d requests", len(b.untracedOps)))
	b.note("apply_p99_ms", 1000*quantile(b.untracedOps, 0.99), "ms", fmt.Sprintf("n=%d", len(b.untracedOps)))

	// Server-side layers over the timed window, from the serve registry.
	histDelta := func(name string) float64 {
		h0, h1 := before.Histograms[name], after.Histograms[name]
		return ratio(h1.Sum-h0.Sum, float64(h1.Count-h0.Count))
	}
	counterDelta := func(name string) float64 {
		return float64(after.Counters[name] - before.Counters[name])
	}
	handler, score := histDelta("serve_http_request_seconds"), histDelta("apply_seconds")
	b.layer["serve.handler_s"] = handler
	b.layer["segment.score_s"] = score
	b.layer["serve.decode_share"] = ratio(handler-score, handler)
	b.layer["client.overhead_s"] = ratio(rtSum, float64(ok)) - handler
	b.layer["serve.shed"] = counterDelta("apply_shed_total")
	b.layer["serve.errors"] = counterDelta("apply_errors_total")
	b.layer["serve.deadline_exceeded"] = counterDelta("apply_deadline_exceeded_total")
	requests := float64(max(ok, 1))
	b.layer["runtime.gc_s"] = rt.gcSeconds / requests
	b.layer["runtime.alloc_mb"] = rt.allocBytes / 1e6 / requests
	return nil
}
