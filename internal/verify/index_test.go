package verify

import (
	"math/rand"
	"testing"

	"arcs/internal/binning"
	"arcs/internal/dataset"
	"arcs/internal/rules"
)

func indexFixture(t *testing.T, rng *rand.Rand, n int) (*dataset.Table, []float64, []float64) {
	t.Helper()
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	tb := dataset.NewTable(schema)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		switch rng.Intn(10) {
		case 0: // below the binned range
			x = -5 - rng.Float64()*10
		case 1: // above it
			y = 105 + rng.Float64()*10
		case 2: // exactly on the top boundary (outside every half-open bin)
			x = 100
		case 3: // exactly on an interior boundary
			x = float64(rng.Intn(10)) * 10
		}
		tb.MustAppend(dataset.Tuple{x, y, float64(rng.Intn(3))})
	}
	xb, err := binning.NewEquiWidth(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := binning.NewEquiWidth(0, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tb, binning.Boundaries(xb), binning.Boundaries(yb)
}

// randomRules draws boundary-aligned rule rectangles, sprinkling in
// inverted ranges (which cover nothing) and, when misaligned is set,
// rules whose edges are not boundary values (forcing the rect-scan
// fallback).
func randomRules(rng *rand.Rand, xB, yB []float64, count int, misaligned bool) []rules.ClusteredRule {
	rs := make([]rules.ClusteredRule, 0, count)
	for len(rs) < count {
		r := rules.ClusteredRule{}
		switch {
		case misaligned && rng.Intn(3) == 0:
			lo := rng.Float64() * 90
			r.XLo, r.XHi = lo, lo+3.7+rng.Float64()*20
			lo = rng.Float64() * 90
			r.YLo, r.YHi = lo, lo+5.1+rng.Float64()*20
		case rng.Intn(8) == 0: // inverted: covers nothing
			i, j := rng.Intn(len(xB)), rng.Intn(len(xB))
			if i < j {
				i, j = j, i
			}
			r.XLo, r.XHi = xB[i], xB[j]
			r.YLo, r.YHi = yB[0], yB[len(yB)-1]
		default:
			i, j := rng.Intn(len(xB)-1), rng.Intn(len(xB)-1)
			if i > j {
				i, j = j, i
			}
			r.XLo, r.XHi = xB[i], xB[j+1]
			i, j = rng.Intn(len(yB)-1), rng.Intn(len(yB)-1)
			if i > j {
				i, j = j, i
			}
			r.YLo, r.YHi = yB[i], yB[j+1]
		}
		rs = append(rs, r)
	}
	return rs
}

// TestIndexMatchesScan is the equivalence contract: the bitmap-based
// index must report exactly the same error counts as the O(|rules|)
// rect scan, on randomized rule sets, for tables containing tuples
// outside the binned range and on bin boundaries.
func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb, xB, yB := indexFixture(t, rng, 500)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != tb.Len() {
		t.Fatalf("index len %d, table len %d", ix.Len(), tb.Len())
	}
	for trial := 0; trial < 50; trial++ {
		misaligned := trial%2 == 1
		rs := randomRules(rng, xB, yB, 1+rng.Intn(6), misaligned)
		seg := rng.Intn(3)

		want := Measure(rs, tb, 0, 1, 2, seg)
		got := ix.Measure(rs, seg)
		if got != want {
			t.Fatalf("trial %d (misaligned=%v): Measure mismatch\nindex: %v\nscan:  %v\nrules: %v",
				trial, misaligned, got, want, rs)
		}

		idx := make([]int, 0, 100)
		for i := 0; i < 100; i++ {
			idx = append(idx, rng.Intn(tb.Len()))
		}
		want = MeasureIndices(rs, tb, idx, 0, 1, 2, seg)
		got = ix.MeasureIndices(rs, idx, seg)
		if got != want {
			t.Fatalf("trial %d: MeasureIndices mismatch index=%v scan=%v", trial, got, want)
		}
	}
}

// TestIndexMeasureRepeatedMatches checks the sampling path consumes the
// RNG identically, so equal seeds give bit-equal mean/std either way.
func TestIndexMeasureRepeatedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb, xB, yB := indexFixture(t, rng, 400)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		rs := randomRules(rng, xB, yB, 1+rng.Intn(5), trial%3 == 0)
		seg := rng.Intn(3)
		m1, s1, err1 := MeasureRepeated(rs, tb, rand.New(rand.NewSource(99)), 5, 120, 0, 1, 2, seg)
		m2, s2, err2 := ix.MeasureRepeated(rs, rand.New(rand.NewSource(99)), 5, 120, seg)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if m1 != m2 || s1 != s2 {
			t.Fatalf("trial %d: repeated measure mismatch: scan (%v, %v) index (%v, %v)",
				trial, m1, s1, m2, s2)
		}
	}
}

func TestSlotOf(t *testing.T) {
	bounds := []float64{0, 10, 20, 30}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, -1}, {0, 0}, {5, 0}, {10, 1}, {19.999, 1},
		{20, 2}, {29.999, 2}, {30, -1}, {31, -1},
	}
	for _, c := range cases {
		if got := slotOf(bounds, c.v); got != c.want {
			t.Errorf("slotOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}
