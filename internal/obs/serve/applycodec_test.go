package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"arcs/internal/number"
	"arcs/internal/segment"
)

// decodeApplyJSON decodes body as the handler did before the codec, and
// as its fallback still does: encoding/json, unknown fields disallowed.
func decodeApplyJSON(body []byte) (applyRequest, error) {
	var req applyRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// checkApplyBody holds decodeApplyPoints to encoding/json on one body:
// where the codec takes it, encoding/json decodes it to a points
// request with the same points, bit for bit, and the same timeout_ms.
// It reports whether the codec took the body.
func checkApplyBody(t *testing.T, body []byte) (took bool) {
	t.Helper()
	reused := [][2]float64{{7, 7}, {8, 8}}
	pts, ms, ok := decodeApplyPoints(body, reused[:0])
	if fresh, fms, fok := decodeApplyPoints(body, nil); fok != ok || fms != ms || len(fresh) != len(pts) {
		t.Fatalf("%q: the codec decodes differently into a reused slice", body)
	}
	if !ok {
		return false
	}
	req, err := decodeApplyJSON(body)
	if err != nil {
		t.Fatalf("%q: the codec took the body, encoding/json fails: %v", body, err)
	}
	if req.Tuple != nil || req.Points == nil || pts == nil {
		t.Fatalf("%q: encoding/json reads tuple %v, points nil %v; the codec's points nil %v",
			body, req.Tuple, req.Points == nil, pts == nil)
	}
	if req.TimeoutMS != ms {
		t.Fatalf("%q: timeout_ms %d from the codec, %d from encoding/json", body, ms, req.TimeoutMS)
	}
	if len(pts) != len(req.Points) {
		t.Fatalf("%q: %d points from the codec, %d from encoding/json", body, len(pts), len(req.Points))
	}
	for i := range pts {
		for k := range pts[i] {
			if got, want := math.Float64bits(pts[i][k]), math.Float64bits(req.Points[i][k]); got != want {
				t.Fatalf("%q: point %d[%d] is %v [%#x] from the codec, %v [%#x] from encoding/json",
					body, i, k, pts[i][k], got, req.Points[i][k], want)
			}
		}
	}
	return true
}

// randomPoints returns n points over the synth domain, as perfbench
// draws them.
func randomPoints(rng *rand.Rand, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{20 + rng.Float64()*60, 20_000 + rng.Float64()*130_000}
	}
	return pts
}

func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// canonicalApplyBodies are bodies the codec must take: json.Marshal
// output, whitespace between every token, and both key orders.
func canonicalApplyBodies() [][]byte {
	rng := rand.New(rand.NewSource(1))
	bodies := [][]byte{
		marshalBody(map[string]any{"points": randomPoints(rng, 1000)}),
		marshalBody(map[string]any{"points": randomPoints(rng, 3), "timeout_ms": 250}),
		marshalBody(applyRequest{Points: [][2]float64{{-1e-7, 1e21}, {math.MaxFloat64, math.SmallestNonzeroFloat64}}}),
		[]byte(`{"points":[]}`),
		[]byte(`{"points":[[30,75000],[30,75001],[31,74999]]}`),
		[]byte(" \t\r\n{ \"points\" : [ [ 30 , 75000 ] ,\n[31,\t-0.5e-3] ] , \"timeout_ms\" : 60000 }\n "),
		[]byte(`{"timeout_ms": -1, "points": [[1.5, 2E+3], [-0, 0]]}`),
		[]byte(`{"timeout_ms":0,"points":[[1,2]]}`),
		[]byte(`{"points":[[1,2]],"timeout_ms":9223372036854775807}`),
		[]byte(`{"timeout_ms": 9300000000000, "points": [[1, 2]]}`),
	}
	for _, s := range []string{"-0", "1e+21", "5e-324", "12345678901234567890123", "0.000000000000000000000000000001234"} {
		bodies = append(bodies, []byte(`{"points":[[`+s+`,1],[1,`+s+`]]}`))
	}
	return bodies
}

// applyBodySeeds are the differential test's bodies and FuzzApplyBody's
// seed corpus: the canonical bodies, every kernel edge case as a
// coordinate, and bodies the codec must leave to encoding/json.
func applyBodySeeds() [][]byte {
	seeds := canonicalApplyBodies()
	for _, s := range number.EdgeCases {
		seeds = append(seeds, []byte(`{"points":[[`+s+`,1]]}`), []byte(`{"points":[[1, `+s+`]]}`))
	}
	for _, s := range []string{
		// Numbers outside JSON's grammar or strconv's range.
		`{"points":[[01,2]]}`, `{"points":[[1.,2]]}`, `{"points":[[.5,2]]}`, `{"points":[[1e400,2]]}`,
		`{"points":[[+1,2]]}`, `{"points":[[1e,2]]}`, `{"points":[[-,2]]}`, `{"points":[[NaN,2]]}`,
		// Elements that are not exactly two numbers.
		`{"points":[[1]]}`, `{"points":[[1,2,3]]}`, `{"points":[[null,1]]}`, `{"points":[[]]}`,
		`{"points":[1,2]}`, `{"points":[["1",2]]}`, `{"points":[[1,2],]}`, `{"points":[[1,2]`,
		// Keys.
		`{"Points":[[1,2]]}`, `{"p\u006fints":[[1,2]]}`, `{"points":[[1,2]],"points":[[3,4]]}`,
		`{"timeout_ms":5,"timeout_ms":6,"points":[[1,2]]}`, `{"tuple":{"age":30,"salary":75}}`,
		`{"points":[[1,2]],"tuple":{"age":30,"salary":75}}`, `{"points":[[1,2]],"extra":1}`,
		`{"timeout_ms":5}`, `{}`, `{"points":[[1,2]],}`, `{"points"[[1,2]]}`,
		`{"points" "timeout_ms": 5, "points": [[1,2]]}`, `{"timeout_ms" "points":[[1,2]], "timeout_ms":5}`,
		// Bodies.
		``, `[]`, `null`, `{"points":null}`, `{"points":[[1,2]]} x`, `{"points":[[1,2]]}{}`, "\ufeff{\"points\":[]}",
		// timeout_ms values encoding/json refuses, or takes.
		`{"points":[[1,2]],"timeout_ms":1.5}`, `{"points":[[1,2]],"timeout_ms":1e3}`,
		`{"points":[[1,2]],"timeout_ms":-1}`, `{"points":[[1,2]],"timeout_ms":-0}`,
		`{"points":[[1,2]],"timeout_ms":9223372036854775808}`, `{"points":[[1,2]],"timeout_ms":null}`,
		`{"points":[[1,2]],"timeout_ms":"5"}`, `{"points":[[1,2]],"timeout_ms":007}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestApplyCodecMatchesEncodingJSON is the codec's differential test:
// on every seed body it declines or agrees with encoding/json, and it
// takes every canonical body (a codec that declined everything would
// agree trivially).
func TestApplyCodecMatchesEncodingJSON(t *testing.T) {
	for _, body := range applyBodySeeds() {
		checkApplyBody(t, body)
	}
	for _, body := range canonicalApplyBodies() {
		if !checkApplyBody(t, body) {
			t.Errorf("the codec declined the canonical body %.80q", body)
		}
	}
	for _, s := range []string{
		`{"Points":[[1,2]]}`, `{"p\u006fints":[[1,2]]}`, `{"points":[[1,2]],"points":[[3,4]]}`,
		`{"points":[[1]]}`, `{"points":[[1,2]]} x`, `{"points":[[1e400,2]]}`,
		`{"points" "timeout_ms": 5, "points": [[1,2]]}`, `{"timeout_ms" "points":[[1,2]], "timeout_ms":5}`,
	} {
		if checkApplyBody(t, []byte(s)) {
			t.Errorf("the codec took %q, which it must leave to encoding/json", s)
		}
	}
}

// FuzzApplyBody holds the codec to encoding/json on arbitrary bodies.
func FuzzApplyBody(f *testing.F) {
	for _, body := range applyBodySeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkApplyBody(t, body)
	})
}

// writeJSONPoints is the points response as writeJSON writes it.
func writeJSONPoints(model string, matched int, results []bool) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"model": model, "total": len(results), "matched": matched, "results": results})
	return rec.Body.Bytes()
}

// TestPointsResponseMatchesWriteJSON: the direct writer's bytes are
// writeJSON's, for 0, 1 and 1,000 results and for a model ID that
// encoding/json escapes.
func TestPointsResponseMatchesWriteJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 1000} {
		for _, model := range []string{"m000001", "m<1>&\"\\ \x01é"} {
			results, matched := make([]bool, n), 0
			for i := range results {
				if results[i] = rng.Intn(2) == 0; results[i] {
					matched++
				}
			}
			got := appendPointsResponse([]byte("stale"), model, matched, results)[len("stale"):]
			if want := writeJSONPoints(model, matched, results); !bytes.Equal(got, want) {
				t.Errorf("%d results, model %q: the direct writer wrote\n%s\nwriteJSON writes\n%s", n, model, got, want)
			}
		}
	}
}

// TestApplyCodecZeroAlloc: decoding a 1,000-point body into reused
// slices and encoding its response into a reused buffer allocate
// nothing.
func TestApplyCodecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	body := marshalBody(map[string]any{"points": randomPoints(rng, 1000), "timeout_ms": 250})
	pts := make([][2]float64, 0, 1000)
	results := make([]bool, 1000)
	resp := make([]byte, 0, 16<<10)
	allocs := testing.AllocsPerRun(50, func() {
		var ok bool
		if pts, _, ok = decodeApplyPoints(body, pts[:0]); !ok || len(pts) != 1000 {
			t.Fatal("the codec declined a canonical 1,000-point body")
		}
		resp = appendPointsResponse(resp[:0], "m000001", 500, results)
	})
	if allocs != 0 {
		t.Errorf("decoding and encoding a 1,000-point request allocated %.1f times, want 0", allocs)
	}
}

// TestApplyTimeoutNeverOverflows: a timeout_ms too large for a Duration
// leaves the ceiling in force, and every other value gets the deadline
// min(ceiling, timeout_ms) it got when the product was computed, against
// sub-millisecond ceilings too.
func TestApplyTimeoutNeverOverflows(t *testing.T) {
	for _, ceiling := range []time.Duration{500 * time.Microsecond, time.Millisecond, 1500 * time.Microsecond, 5 * time.Second, time.Hour} {
		for _, ms := range []int{math.MinInt64, -1, 0, 1, 2, 1499, 1500, 1501, 5000, 60000, 9_223_372_036_854, 9_223_372_036_855, 9_300_000_000_000, math.MaxInt64} {
			want := ceiling
			if ms <= math.MaxInt64/int(time.Millisecond) {
				if d := time.Duration(ms) * time.Millisecond; ms > 0 && d < ceiling {
					want = d
				}
			}
			if got := requestTimeout(ceiling, ms); got != want {
				t.Errorf("requestTimeout(%v, %d) = %v, want %v", ceiling, ms, got, want)
			}
		}
	}
}

// TestApplyHugeTimeoutKeepsCeiling: over HTTP, a 5,000-point batch with
// a timeout_ms above the 5 s ceiling is scored, through the codec and
// through encoding/json (a capitalised key), and both paths answer the
// same bytes. Multiplying timeout_ms into a Duration overflowed to an
// expired deadline and answered 504.
func TestApplyHugeTimeoutKeepsCeiling(t *testing.T) {
	s, ts, _ := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)
	pts := "[" + strings.Repeat("[30,75],", 4999) + "[30,75]]"
	var first []byte
	for _, key := range []string{`"points"`, `"Points"`} {
		for _, ms := range []string{"9300000000000", strconv.Itoa(math.MaxInt64), "60000"} {
			fallbacks := s.mApplyFallback.Value()
			body := `{"timeout_ms": ` + ms + `, ` + key + `: ` + pts + `}`
			resp, err := http.Post(ts.URL+"/apply", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s with timeout_ms %s = %d %s, want 200", key, ms, resp.StatusCode, got)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("%s with timeout_ms %s answered\n%.200s\nwhere the first request answered\n%.200s", key, ms, got, first)
			}
			wantFell := int64(0)
			if key == `"Points"` {
				wantFell = 1
			}
			if fell := s.mApplyFallback.Value() - fallbacks; fell != wantFell {
				t.Fatalf("%s with timeout_ms %s: %d bodies went to encoding/json, want %d", key, ms, fell, wantFell)
			}
		}
	}
}

// TestApplyOverHTTPMatchesEncodingJSON sends every seed body to /apply
// and requires the answer the handler gave when it decoded with
// encoding/json alone: the same 400 message for a body it refuses, and
// for a points body the same status and response bytes.
func TestApplyOverHTTPMatchesEncodingJSON(t *testing.T) {
	_, ts, _ := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)
	model, err := segment.Read(strings.NewReader(modelDoc()))
	if err != nil {
		t.Fatal(err)
	}
	check := func(body []byte, wantStatus int, want []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus || want != nil && !bytes.Equal(got, want) {
			t.Errorf("%.80q: answered %d %.200q, want %d %.200q", body, resp.StatusCode, got, wantStatus, want)
		}
	}
	// A body that ends within the 32 MiB cap is taken even when more
	// follows; one that does not is refused.
	tooLarge := bytes.Repeat([]byte{' '}, maxApplyBody)
	bodies := append(applyBodySeeds(), append([]byte(`{"points":[[30,75]]}`), tooLarge...))
	check(append([]byte(`{"points":[[30,75]`), tooLarge...), http.StatusBadRequest,
		[]byte("bad request: http: request body too large\n"))

	for _, body := range bodies {
		req, err := decodeApplyJSON(body)
		switch {
		case err != nil:
			check(body, http.StatusBadRequest, []byte("bad request: "+err.Error()+"\n"))
		case (req.Tuple == nil) == (req.Points == nil):
			check(body, http.StatusBadRequest, []byte("set exactly one of tuple or points\n"))
		case req.Points != nil:
			results := make([]bool, len(req.Points))
			check(body, http.StatusOK, writeJSONPoints("m000001", model.ApplyPoints(req.Points, results), results))
		default:
			check(body, http.StatusOK, nil)
		}
	}
}

// TestApplyConcurrentRequestsKeepTheirBuffers: requests served at once
// from pooled buffers each get the answer to their own batch, whatever
// its size, on both decode paths.
func TestApplyConcurrentRequestsKeepTheirBuffers(t *testing.T) {
	_, ts, _ := newModelServer(t, Options{})
	post(t, ts, "/models", `{"model": `+modelDoc()+`, "activate": true}`)
	model, err := segment.Read(strings.NewReader(modelDoc()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	type batch struct{ body, want []byte }
	batches := make([]batch, 16)
	for i := range batches {
		pts := make([][2]float64, 1+rng.Intn(2000))
		for k := range pts {
			pts[k] = [2]float64{10 + rng.Float64()*40, 40 + rng.Float64()*70}
		}
		key := "points"
		if i%4 == 3 {
			key = "Points"
		}
		results := make([]bool, len(pts))
		batches[i] = batch{marshalBody(map[string]any{key: pts}), writeJSONPoints("m000001", model.ApplyPoints(pts, results), results)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(batches); i++ {
				b := batches[(g+i)%len(batches)]
				resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(b.body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, b.want) {
					t.Errorf("batch %d: status %d, err %v, %d bytes, want %d bytes", (g+i)%len(batches), resp.StatusCode, err, len(got), len(b.want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var (
	benchPoints [][2]float64
	benchResp   []byte
)

// BenchmarkApplyCodec times a 1,000-point body of perfbench's shape
// decoded, and its response encoded, by the codec and by encoding/json.
func BenchmarkApplyCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	body := marshalBody(map[string]any{"points": randomPoints(rng, 1000)})
	results := make([]bool, 1000)
	b.Run("decode/codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		pts := make([][2]float64, 0, 1000)
		for i := 0; i < b.N; i++ {
			pts, _, _ = decodeApplyPoints(body, pts[:0])
		}
		benchPoints = pts
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			req, _ := decodeApplyJSON(body)
			benchPoints = req.Points
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		resp := make([]byte, 0, 16<<10)
		for i := 0; i < b.N; i++ {
			resp = appendPointsResponse(resp[:0], "m000001", 500, results)
		}
		benchResp = resp
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchResp = writeJSONPoints("m000001", 500, results)
		}
	})
}
