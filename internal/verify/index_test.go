package verify

import (
	"math/rand"
	"strings"
	"testing"

	"arcs/internal/binning"
	"arcs/internal/dataset"
	"arcs/internal/rules"
	"arcs/internal/stats"
)

// draws is the production draw shape: five draws of half the sample.
func draws(seed int64) Draws { return Draws{Rounds: 5, K: 1000, Seed: seed} }

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
// inverted ranges, which cover nothing.
func randomRules(rng *rand.Rand, xB, yB []float64, count int) []rules.ClusteredRule {
	rs := make([]rules.ClusteredRule, 0, count)
	for len(rs) < count {
		r := rules.ClusteredRule{}
		if rng.Intn(8) == 0 { // inverted: covers nothing
			i, j := rng.Intn(len(xB)), rng.Intn(len(xB))
			if i < j {
				i, j = j, i
			}
			r.XLo, r.XHi = xB[i], xB[j]
			r.YLo, r.YHi = yB[0], yB[len(yB)-1]
		} else {
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

// referenceMeanErrors is the per-probe sampling the Index replaces: d's
// draws made afresh from their seed, each counted by the rect scan, and
// averaged with stats.Mean.
func referenceMeanErrors(t *testing.T, rs []rules.ClusteredRule, tb *dataset.Table, d Draws, segCode int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(d.Seed))
	n := tb.Len()
	vals := make([]float64, d.Rounds)
	for r := range vals {
		draw, err := stats.SampleKofN(rng, min(d.K, n), n)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorCounts
		for _, i := range draw {
			row := tb.Row(i)
			e.add(Covered(rs, row[0], row[1]), int(row[2]) == segCode)
		}
		vals[r] = float64(e.Errors())
	}
	return stats.Mean(vals)
}

// TestIndexMatchesScan is the equivalence contract: the bitmap-based
// index must report exactly the same error counts as the O(|rules|)
// rect scan, on randomized rule sets, for tables containing tuples
// outside the binned range and on bin boundaries.
func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb, xB, yB := indexFixture(t, rng, 500)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB, draws(1))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != tb.Len() {
		t.Fatalf("index len %d, table len %d", ix.Len(), tb.Len())
	}
	for trial := 0; trial < 50; trial++ {
		rs := randomRules(rng, xB, yB, 1+rng.Intn(6))
		seg := rng.Intn(3)
		want := Measure(rs, tb, 0, 1, 2, seg)
		got, err := ix.Measure(rs, seg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: Measure mismatch\nindex: %v\nscan:  %v\nrules: %v", trial, got, want, rs)
		}
	}
}

// TestIndexMeanErrorsMatchesDraws: the draws made once with the index
// score every rule set as the draws made afresh for each one did, to
// the bit, with k below, at and above the sample size.
func TestIndexMeanErrorsMatchesDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb, xB, yB := indexFixture(t, rng, 400)
	for _, d := range []Draws{{5, 120, 99}, {5, 200, 3}, {3, 400, 5}, {5, 1000, 8}, {1, 7, 13}} {
		ix, err := NewIndex(tb, 0, 1, 2, xB, yB, d)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			rs := randomRules(rng, xB, yB, 1+rng.Intn(5))
			seg := rng.Intn(3)
			got, err := ix.MeanErrors(rs, seg)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceMeanErrors(t, rs, tb, d, seg); got != want {
				t.Fatalf("%+v, trial %d: mean errors %v, reference draws %v", d, trial, got, want)
			}
		}
	}
}

// TestIndexMeanErrorsCountsDrawnTuples: when every tuple is a false
// positive, each draw scores exactly its k tuples.
func TestIndexMeanErrorsCountsDrawnTuples(t *testing.T) {
	for _, c := range []struct{ rows, k, want int }{{50, 10, 10}, {50, 50, 50}, {3, 0, 0}} {
		if got := allFalsePositiveMean(t, c.rows, Draws{Rounds: 6, K: c.k, Seed: 1}); got != float64(c.want) {
			t.Errorf("%d rows, k=%d: mean errors %v, want %d", c.rows, c.k, got, c.want)
		}
	}
}

// TestIndexMeanErrorsClampsK: a k above the sample size draws the
// whole sample.
func TestIndexMeanErrorsClampsK(t *testing.T) {
	for _, c := range []struct{ rows, rounds, k int }{{2, 3, 100}, {2, 6, 1000}, {49, 5, 50}} {
		if got := allFalsePositiveMean(t, c.rows, Draws{Rounds: c.rounds, K: c.k, Seed: 2}); got != float64(c.rows) {
			t.Errorf("%d rows, k=%d: mean errors %v, want %d (k clamped to the sample size)", c.rows, c.k, got, c.rows)
		}
	}
}

// allFalsePositiveMean indexes rows tuples that all lie in the rule
// seg but belong to segment 1, and returns the mean errors of seg for
// segment 0 over the draws d.
func allFalsePositiveMean(t *testing.T, rows int, d Draws) float64 {
	t.Helper()
	data := make([][3]float64, rows)
	for i := range data {
		data[i] = [3]float64{5, 5, 1}
	}
	tb := mkTable(t, data)
	ix, err := NewIndex(tb, 0, 1, 2, []float64{0, 10}, []float64{0, 10}, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.MeanErrors(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestIndexOffBoundaryEdgeIsError: a rule edge that is not a binner
// boundary fails the measurement with an error naming each such edge,
// in Measure and MeanErrors alike.
func TestIndexOffBoundaryEdgeIsError(t *testing.T) {
	tb, xB, yB := indexFixture(t, rand.New(rand.NewSource(11)), 100)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB, draws(2))
	if err != nil {
		t.Fatal(err)
	}
	aligned := rules.ClusteredRule{XLo: xB[0], XHi: xB[2], YLo: yB[1], YHi: yB[3]}
	offX := rules.ClusteredRule{XLo: 3.7, XHi: xB[2], YLo: yB[1], YHi: yB[3]}
	offBoth := rules.ClusteredRule{XLo: xB[0], XHi: 47.1, YLo: 0.5, YHi: yB[3]}
	for _, c := range []struct {
		rs   []rules.ClusteredRule
		want []string
	}{
		{[]rules.ClusteredRule{aligned, offX}, []string{"not a binner boundary: x_lo=3.7"}},
		{[]rules.ClusteredRule{offBoth, aligned}, []string{"x_hi=47.1, y_lo=0.5"}},
	} {
		_, merr := ix.Measure(c.rs, 1)
		_, derr := ix.MeanErrors(c.rs, 1)
		for _, err := range []error{merr, derr} {
			if err == nil {
				t.Fatalf("rules %+v: no error", c.rs)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		}
	}
	// The index measures as before after an error.
	if got, err := ix.Measure([]rules.ClusteredRule{aligned}, 1); err != nil || got != Measure([]rules.ClusteredRule{aligned}, tb, 0, 1, 2, 1) {
		t.Errorf("aligned measure after an error = %+v, %v", got, err)
	}
}

// TestNewIndexRejectsBadDraws: the number of draws must fit the uint8
// count each tuple keeps.
func TestNewIndexRejectsBadDraws(t *testing.T) {
	tb, xB, yB := indexFixture(t, rand.New(rand.NewSource(3)), 10)
	for _, rounds := range []int{0, -1, 256} {
		if _, err := NewIndex(tb, 0, 1, 2, xB, yB, Draws{Rounds: rounds, K: 5}); err == nil {
			t.Errorf("%d rounds: no error", rounds)
		}
	}
	if _, err := NewIndex(tb, 0, 1, 2, xB, yB, Draws{Rounds: 255, K: 5}); err != nil {
		t.Errorf("255 rounds: %v", err)
	}
}

// FuzzIndexMatchesScan holds the Index to the rect scan on random
// samples, with values below, on, between and above random boundaries,
// and random boundary-aligned rules, some of them empty or inverted:
// Measure equals the scan's counts, and MeanErrors equals the mean of
// five draws made afresh from the seed and counted by the scan.
func FuzzIndexMatchesScan(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed, uint16(seed*97), uint8(seed%9), uint16(seed*211))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, nrules uint8, k uint16) {
		rng := rand.New(rand.NewSource(seed))
		bounds := func() []float64 {
			b := make([]float64, 2+rng.Intn(12))
			b[0] = 20*rng.Float64() - 10
			for i := 1; i < len(b); i++ {
				b[i] = b[i-1] + 0.01 + 5*rng.Float64()
			}
			return b
		}
		xB, yB := bounds(), bounds()
		coord := func(b []float64) float64 {
			lo, hi := b[0], b[len(b)-1]
			switch rng.Intn(5) {
			case 0:
				return lo - 1 - 3*rng.Float64() // below the lowest boundary
			case 1:
				return hi + 3*rng.Float64() // on or above the highest
			case 2:
				return lo + (hi-lo)*rng.Float64() // between boundaries
			}
			return b[rng.Intn(len(b))] // on a boundary
		}
		n := int(rows)%2500 + 1
		data := make([][3]float64, n)
		for i := range data {
			data[i] = [3]float64{coord(xB), coord(yB), float64(rng.Intn(2))}
		}
		tb := mkTable(t, data)
		// Edges are drawn independently, so some ranges are empty or
		// inverted.
		rs := make([]rules.ClusteredRule, int(nrules)%8)
		for i := range rs {
			rs[i] = rules.ClusteredRule{
				XLo: xB[rng.Intn(len(xB))], XHi: xB[rng.Intn(len(xB))],
				YLo: yB[rng.Intn(len(yB))], YHi: yB[rng.Intn(len(yB))],
			}
		}
		segCode := rng.Intn(2)
		d := Draws{Rounds: 5, K: int(k) % (2*n + 1), Seed: seed}

		ix, err := NewIndex(tb, 0, 1, 2, xB, yB, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Measure(rs, segCode)
		if err != nil {
			t.Fatal(err)
		}
		if want := Measure(rs, tb, 0, 1, 2, segCode); got != want {
			t.Errorf("Measure = %+v, rect scan = %+v", got, want)
		}
		mean, err := ix.MeanErrors(rs, segCode)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceMeanErrors(t, rs, tb, d, segCode); mean != want {
			t.Errorf("MeanErrors = %v, five fresh draws = %v (k=%d of %d)", mean, want, d.K, n)
		}
	})
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
