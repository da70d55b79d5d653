package verify

import (
	"math/rand"
	"testing"

	"arcs/internal/rules"
)

func TestSegmentStats(t *testing.T) {
	// Two overlapping rules; 6 tuples.
	rs := []rules.ClusteredRule{
		{XLo: 0, XHi: 10, YLo: 0, YHi: 10}, // covers x,y < 10
		{XLo: 5, XHi: 15, YLo: 0, YHi: 10}, // covers 5 <= x < 15
	}
	tb := mkTable(t, [][3]float64{
		{2, 2, 0},   // rule 1 only, label A
		{7, 3, 0},   // both rules, label A
		{12, 3, 1},  // rule 2 only, label other
		{12, 4, 0},  // rule 2 only, label A
		{20, 20, 0}, // neither
		{3, 3, 1},   // rule 1 only, label other
	})
	_, _, stats, err := SegmentStats(rs, tb, 0, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	r1 := stats[0]
	if r1.Covered != 3 || r1.Matching != 2 {
		t.Errorf("rule1: %+v", r1)
	}
	if r1.UniqueCovered != 3 {
		t.Errorf("rule1 unique = %d (first rule owns every cell it covers)", r1.UniqueCovered)
	}
	r2 := stats[1]
	if r2.Covered != 3 || r2.Matching != 2 {
		t.Errorf("rule2: %+v", r2)
	}
	// Tuple (7,3) was claimed by rule 1 first.
	if r2.UniqueCovered != 2 {
		t.Errorf("rule2 unique = %d, want 2", r2.UniqueCovered)
	}
	if r1.Support != 2.0/6 {
		t.Errorf("rule1 support = %v", r1.Support)
	}
	if r2.Confidence != 2.0/3 {
		t.Errorf("rule2 confidence = %v", r2.Confidence)
	}
}

func TestSegmentStatsEmptyTable(t *testing.T) {
	tb := mkTable(t, nil)
	if _, _, _, err := SegmentStats(nil, tb, 0, 1, 2, 0); err == nil {
		t.Error("empty table should error")
	}
}

func TestSegmentStatsRuleCoveringNothing(t *testing.T) {
	rs := []rules.ClusteredRule{{XLo: 100, XHi: 200, YLo: 100, YHi: 200}}
	tb := mkTable(t, [][3]float64{{1, 1, 0}})
	_, _, stats, err := SegmentStats(rs, tb, 0, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Covered != 0 || stats[0].Confidence != 0 {
		t.Errorf("stats = %+v", stats[0])
	}
}

// halfOpen is the reference coverage predicate the equivalence tests
// hold the kernels to, written out so that it does not share code with
// rules.ClusteredRule.Covers.
func halfOpen(xlo, xhi, ylo, yhi, x, y float64) bool {
	return xlo <= x && x < xhi && ylo <= y && y < yhi
}

// fuzzSegmentation draws a table and a rule set over the integer grid
// 0..10, so many tuples sit exactly on rule edges. Some tuples lie
// outside every rule, both labels occur, and rule edges are drawn
// independently, so rules overlap and some ranges are empty or
// inverted.
func fuzzSegmentation(rng *rand.Rand, n, nrules int) ([]rules.ClusteredRule, [][3]float64) {
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return -1 - 3*rng.Float64() // below every rule
		case 1:
			return 11 + 3*rng.Float64() // above every rule
		case 2:
			return 10 * rng.Float64()
		}
		return float64(rng.Intn(11))
	}
	rows := make([][3]float64, n)
	for i := range rows {
		rows[i] = [3]float64{coord(), coord(), float64(rng.Intn(2))}
	}
	rs := make([]rules.ClusteredRule, nrules)
	for i := range rs {
		rs[i] = rules.ClusteredRule{
			XLo: float64(rng.Intn(11)), XHi: float64(rng.Intn(11)),
			YLo: float64(rng.Intn(11)), YHi: float64(rng.Intn(11)),
		}
	}
	return rs, rows
}

// FuzzSegmentStats holds the one table pass to independent scans: its
// error counts equal Measure, its criterion count and every rule's
// Covered and Matching equal a one-rule scan, and each covered tuple is
// credited to the UniqueCovered of the first rule covering it, so the
// credits sum to the covered tuples.
func FuzzSegmentStats(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed, uint8(40+seed*11), uint8(seed%7))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, nrules uint8) {
		rng := rand.New(rand.NewSource(seed))
		rs, data := fuzzSegmentation(rng, int(rows)+1, int(nrules)%8)
		tb := mkTable(t, data)
		e, labeled, stats, err := SegmentStats(rs, tb, 0, 1, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := Measure(rs, tb, 0, 1, 2, 0); e != want {
			t.Errorf("error counts = %+v, Measure = %+v", e, want)
		}
		if len(stats) != len(rs) {
			t.Fatalf("got %d rule stats for %d rules", len(stats), len(rs))
		}

		wantLabeled, coveredTuples := 0, 0
		first := make([]int, len(rs))
		for _, d := range data {
			if d[2] == 0 {
				wantLabeled++
			}
			for j, r := range rs {
				if halfOpen(r.XLo, r.XHi, r.YLo, r.YHi, d[0], d[1]) {
					first[j]++
					coveredTuples++
					break
				}
			}
		}
		if labeled != wantLabeled {
			t.Errorf("labeled = %d, want %d", labeled, wantLabeled)
		}

		unique := 0
		for j, r := range rs {
			covered, matching := 0, 0
			for _, d := range data {
				if halfOpen(r.XLo, r.XHi, r.YLo, r.YHi, d[0], d[1]) {
					covered++
					if d[2] == 0 {
						matching++
					}
				}
			}
			st := stats[j]
			if st.Rule != r || st.Covered != covered || st.Matching != matching {
				t.Errorf("rule %d %+v: covered/matching = %d/%d, one-rule scan = %d/%d",
					j, r, st.Covered, st.Matching, covered, matching)
			}
			if st.UniqueCovered != first[j] {
				t.Errorf("rule %d: UniqueCovered = %d, first-covering tuples = %d", j, st.UniqueCovered, first[j])
			}
			wantConf := 0.0
			if covered > 0 {
				wantConf = float64(matching) / float64(covered)
			}
			if st.Support != float64(matching)/float64(len(data)) || st.Confidence != wantConf {
				t.Errorf("rule %d: support/confidence = %g/%g", j, st.Support, st.Confidence)
			}
			unique += st.UniqueCovered
		}
		if unique != coveredTuples {
			t.Errorf("UniqueCovered sums to %d, %d tuples are covered", unique, coveredTuples)
		}
	})
}
