package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/synth"
)

// f2Table materializes the Function-2 generator into an in-memory table,
// the shardable source the parallel-ingest tests need.
func f2Table(t *testing.T, n int) *dataset.Table {
	t.Helper()
	gen := synthSource(t, synth.Config{
		Function: 2, N: n, Seed: 42, Perturbation: 0.05, FracA: 0.4,
	})
	tab, err := dataset.Materialize(gen)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func f2Config(cfg Config) Config {
	cfg.XAttr = synth.AttrAge
	cfg.YAttr = synth.AttrSalary
	cfg.CritAttr = synth.AttrGroup
	cfg.CritValue = synth.GroupA
	return cfg
}

// countsBytes snapshots a system's count backend through the dense
// wire format (counts.Snapshot) — the byte-identity claim of the
// refactor, and it holds for every backend kind, not just dense.
func countsBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := counts.Snapshot(sys.Counts(), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameOutcome compares everything deterministic about two runs.
func sameOutcome(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.MinSupport != b.MinSupport || a.MinConfidence != b.MinConfidence {
		t.Errorf("%s: thresholds (%g, %g) vs (%g, %g)", label,
			a.MinSupport, a.MinConfidence, b.MinSupport, b.MinConfidence)
	}
	if a.Cost != b.Cost {
		t.Errorf("%s: cost %g vs %g", label, a.Cost, b.Cost)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("%s: evaluations %d vs %d", label, a.Evaluations, b.Evaluations)
	}
	if !reflect.DeepEqual(a.Rules, b.Rules) {
		t.Errorf("%s: rules differ: %d vs %d", label, len(a.Rules), len(b.Rules))
	}
	if a.Errors != b.Errors {
		t.Errorf("%s: verification errors %+v vs %+v", label, a.Errors, b.Errors)
	}
}

// sameSample: the verification sample must be row-for-row identical —
// it drives every verify measurement downstream.
func sameSample(t *testing.T, label string, a, b *dataset.Table) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: sample sizes %d vs %d", label, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) {
			t.Fatalf("%s: sample row %d differs: %v vs %v", label, i, a.Row(i), b.Row(i))
		}
	}
}

// countSpan builds a System over src with a span sink and returns the
// System and its count span.
func countSpan(t *testing.T, src dataset.Source, cfg Config) (*System, obs.Event) {
	t.Helper()
	sink := &obs.MemSink{}
	cfg.Observer = obs.New(sink)
	sys, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := sink.Spans("count")
	if len(spans) != 1 {
		t.Fatalf("%d count spans, want 1", len(spans))
	}
	return sys, spans[0]
}

// TestShardedSystemMatchesDense is the refactor's acceptance test: any
// IngestWorkers setting yields a byte-identical count backend, the same
// verification sample, and an identical end-to-end Result; a sharded
// build reports its worker count on the count span and in CountsStats.
func TestShardedSystemMatchesDense(t *testing.T) {
	tab := f2Table(t, 20_000)
	mk := func(workers int) *System {
		t.Helper()
		sys, span := countSpan(t, tab, f2Config(Config{
			NumBins: 20, Walk: walkBudget(), IngestWorkers: workers,
		}))
		wantMode, wantWorkers := "sequential", "1"
		if workers > 1 {
			wantMode, wantWorkers = "sharded", strconv.Itoa(workers)
		}
		if span.Attr("mode") != wantMode || span.Attr("workers") != wantWorkers {
			t.Errorf("workers=%d: count span mode=%s workers=%s, want %s/%s", workers,
				span.Attr("mode"), span.Attr("workers"), wantMode, wantWorkers)
		}
		if got := sys.CountsStats().Workers; strconv.Itoa(got) != wantWorkers {
			t.Errorf("workers=%d: CountsStats().Workers = %d", workers, got)
		}
		return sys
	}
	ref := mk(0)
	refBytes := countsBytes(t, ref)
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		sys := mk(workers)
		if !bytes.Equal(countsBytes(t, sys), refBytes) {
			t.Errorf("workers=%d: counts differ from the sequential build", workers)
		}
		sameSample(t, "sharded", ref.Sample(), sys.Sample())
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "sharded", refRes, res)
	}
}

// TestBuildFallsBackToDense: IngestWorkers > 1 over a source that
// cannot shard (a stream wrapper) builds sequentially instead, and says
// so on the count span and in CountsStats.
func TestBuildFallsBackToDense(t *testing.T) {
	tab := f2Table(t, 5_000)
	sys, span := countSpan(t, dataset.Limit(tab, tab.Len()), f2Config(Config{
		NumBins: 20, Walk: walkBudget(), IngestWorkers: 4,
	}))
	if span.Attr("mode") != "sequential" || span.Attr("workers") != "1" || span.Attr("backend") != "dense" {
		t.Errorf("count span mode=%s workers=%s backend=%s, want sequential/1/dense",
			span.Attr("mode"), span.Attr("workers"), span.Attr("backend"))
	}
	if st := sys.CountsStats(); st.Workers != 1 || st.Backend != "dense" {
		t.Errorf("CountsStats() = %+v, want one dense worker", st)
	}
	if got := sys.Counts().N(); got != uint64(tab.Len()) {
		t.Errorf("N() = %d, want %d", got, tab.Len())
	}
}

// TestConstantColumnBins: a constant quantitative column fits through
// the degenerate-range widening instead of collapsing the binner.
func TestConstantColumnBins(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	for _, label := range []string{"a", "b"} {
		if _, err := schema.At(2).CategoryCode(label); err != nil {
			t.Fatal(err)
		}
	}
	tab := dataset.NewTable(schema)
	for i := 0; i < 50; i++ {
		tab.MustAppend(dataset.Tuple{float64(i % 10), 7.5, float64(i % 2)})
	}
	sys, err := New(tab, Config{
		XAttr: "x", YAttr: "y", CritAttr: "g", CritValue: "a", NumBins: 5,
	})
	if err != nil {
		t.Fatalf("constant column broke the build: %v", err)
	}
	ba := sys.Counts()
	if ba.N() != 50 {
		t.Fatalf("N() = %d, want 50", ba.N())
	}
	// Every tuple lands in y bin 0: the widened range is [7.5, 8.5).
	var inBin0 uint32
	for x := 0; x < ba.NX(); x++ {
		inBin0 += ba.CellTotal(x, 0)
	}
	if inBin0 != 50 {
		t.Errorf("%d tuples in y bin 0, want all 50", inBin0)
	}
}

// TestNonFiniteLHSRejected: a NaN or infinite value of either LHS
// attribute fails New, and Extend, with an error naming the attribute,
// the row and the value, instead of reaching the binners.
func TestNonFiniteLHSRejected(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "salary", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "group", Kind: dataset.Categorical},
	)
	for _, label := range []string{"A", "B"} {
		if _, err := schema.At(2).CategoryCode(label); err != nil {
			t.Fatal(err)
		}
	}
	table := func(rows int, bad []float64) *dataset.Table {
		tb := dataset.NewTable(schema)
		for i := 0; i < rows; i++ {
			tb.MustAppend(dataset.Tuple{float64(20 + i%50), float64(20_000 + 500*i), float64(i % 2)})
		}
		if bad != nil {
			tb.MustAppend(bad)
		}
		return tb
	}
	cfg := Config{XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A", NumBins: 10}
	sys, err := New(table(200, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for col, attr := range []string{"age", "salary"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := dataset.Tuple{40, 50_000, 0}
			bad[col] = v
			name := fmt.Sprintf("%s=%v", attr, v)
			_, newErr := New(table(200, bad), cfg)
			extErr := sys.Extend(table(3, bad))
			for _, c := range []struct {
				what string
				err  error
				row  int
			}{{"New", newErr, 200}, {"Extend", extErr, 3}} {
				if c.err == nil {
					t.Errorf("%s, %s: no error", name, c.what)
					continue
				}
				for _, want := range []string{strconv.Quote(attr), fmt.Sprintf("row %d", c.row), fmt.Sprint(v)} {
					if !strings.Contains(c.err.Error(), want) {
						t.Errorf("%s, %s: error %q does not name %s", name, c.what, c.err, want)
					}
				}
			}
		}
	}
}
