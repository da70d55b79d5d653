package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestIngestBenchSmall: a small multi-size run produces one row per
// size with the dense baseline, the sparse variant, and one variant per
// worker count — all byte-identical, with sane throughputs.
func TestIngestBenchSmall(t *testing.T) {
	r, err := IngestBench(context.Background(), []int{10_000, 20_000}, 30, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("a counting-pass variant diverged from the dense build")
	}
	if r.Partial {
		t.Fatal("uncanceled run marked partial")
	}
	if len(r.Sizes) != 2 {
		t.Fatalf("%d size rows, want 2", len(r.Sizes))
	}
	want := []string{"dense", "sparse", "sharded-2", "sharded-4"}
	for _, row := range r.Sizes {
		if len(row.Variants) != len(want) {
			t.Fatalf("size %d: %d variants, want %d (dense + sparse + 2 sharded)",
				row.Tuples, len(row.Variants), len(want))
		}
		for i, v := range row.Variants {
			if v.Name != want[i] {
				t.Fatalf("size %d variant %d = %q, want %q", row.Tuples, i, v.Name, want[i])
			}
			if v.Seconds <= 0 || v.TuplesPerS <= 0 || v.SpeedupVsDense <= 0 {
				t.Errorf("size %d variant %s has non-positive measurements: %+v", row.Tuples, v.Name, v)
			}
		}
	}
	// Legacy top-level fields mirror the largest size.
	if r.Tuples != 20_000 || len(r.Variants) != len(want) {
		t.Errorf("top-level mirror = %d tuples, %d variants; want 20000, %d", r.Tuples, len(r.Variants), len(want))
	}
	out := RenderIngest(r)
	if !strings.Contains(out, "sharded-4") || !strings.Contains(out, "sparse") || !strings.Contains(out, "crossover") {
		t.Errorf("rendered report missing variant row or crossover line:\n%s", out)
	}
}

// TestIngestBenchCanceled: a pre-canceled context degrades to a partial
// report instead of an opaque failure.
func TestIngestBenchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := IngestBench(ctx, []int{10_000}, 30, []int{2})
	if err == nil {
		t.Fatal("canceled bench returned nil error")
	}
	if r == nil || !r.Partial {
		t.Fatalf("canceled bench report = %+v, want non-nil partial", r)
	}
	if len(r.Sizes) != 0 {
		t.Errorf("pre-canceled run measured %d sizes, want 0", len(r.Sizes))
	}
}

// TestIngestBenchRecord: the history record carries one phase per
// (variant, size) in the BENCH_*.json schema plus the crossover
// summary.
func TestIngestBenchRecord(t *testing.T) {
	r := &IngestReport{
		Experiment: "ingest", Tuples: 2_000_000, Identical: true, Crossover: 2_000_000,
		Sizes: []IngestSizeRow{
			{Tuples: 1_000_000, Identical: true, BestSpeedup: 0.9, Variants: []IngestVariant{
				{Name: "dense", Workers: 1, Seconds: 2.0},
				{Name: "sharded-4", Workers: 4, Seconds: 2.2},
			}},
			{Tuples: 2_000_000, Identical: true, BestSpeedup: 1.6, Variants: []IngestVariant{
				{Name: "dense", Workers: 1, Seconds: 4.0},
				{Name: "sharded-4", Workers: 4, Seconds: 2.5},
			}},
		},
	}
	rec := IngestBenchRecord(r, "abc1234", time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	if rec.Tuples != 2_000_000 || rec.Workers != 4 || rec.GitSHA != "abc1234" || rec.Crossover != 2_000_000 {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Phases) != 4 {
		t.Fatalf("%d phases, want 4 (2 variants × 2 sizes)", len(rec.Phases))
	}
	if rec.Phases[0].Name != "ingest-dense-1000000" || rec.Phases[3].Name != "ingest-sharded-4-2000000" {
		t.Fatalf("record phases = %+v", rec.Phases)
	}
}

// TestIngestStreamSpec: the streamed spec's source is sized and
// shardable with a two-segment criterion — the inputs the scaled bench
// relies on.
func TestIngestStreamSpec(t *testing.T) {
	src, spec, err := IngestStreamSpec(5_000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 5_000 {
		t.Fatalf("stream length %d, want 5000", src.Len())
	}
	if spec.NSeg != 2 {
		t.Fatalf("NSeg = %d, want 2 (GroupA/other)", spec.NSeg)
	}
	if spec.XBinner.NumBins() != 20 || spec.YBinner.NumBins() != 20 {
		t.Fatalf("bins = %d×%d, want 20×20", spec.XBinner.NumBins(), spec.YBinner.NumBins())
	}
}
