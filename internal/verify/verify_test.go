package verify

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// seg is a single rule covering x in [0,10), y in [0,10).
var seg = []rules.ClusteredRule{{XLo: 0, XHi: 10, YLo: 0, YHi: 10}}

// Covered reports whether any rule's LHS covers the (x, y) point. With
// Measure it is the rect-scan reference the Index and SegmentStats are
// held to.
func Covered(rs []rules.ClusteredRule, x, y float64) bool {
	for _, r := range rs {
		if r.Covers(x, y) {
			return true
		}
	}
	return false
}

// Measure counts errors of the segmentation over every row of tb by the
// rect scan. xIdx/yIdx/critIdx are schema positions of the LHS and
// criterion attributes; segCode is the category code of the criterion
// value.
func Measure(rs []rules.ClusteredRule, tb *dataset.Table, xIdx, yIdx, critIdx, segCode int) ErrorCounts {
	var e ErrorCounts
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		e.add(Covered(rs, row[xIdx], row[yIdx]), int(row[critIdx]) == segCode)
	}
	return e
}

func mkTable(t *testing.T, rows [][3]float64) *dataset.Table {
	t.Helper()
	s := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	g := s.Attr("g")
	g.CategoryCode("A")     // code 0
	g.CategoryCode("other") // code 1
	tb := dataset.NewTable(s)
	for _, r := range rows {
		tb.MustAppend(dataset.Tuple{r[0], r[1], r[2]})
	}
	return tb
}

func TestMeasureCounts(t *testing.T) {
	tb := mkTable(t, [][3]float64{
		{5, 5, 0},   // covered, label A: correct
		{5, 5, 1},   // covered, label other: false positive
		{50, 50, 0}, // not covered, label A: false negative
		{50, 50, 1}, // not covered, label other: correct
	})
	e := Measure(seg, tb, 0, 1, 2, 0)
	if e.FalsePositives != 1 || e.FalseNegatives != 1 || e.Total != 4 {
		t.Errorf("counts = %+v", e)
	}
	if e.Errors() != 2 {
		t.Errorf("Errors = %d", e.Errors())
	}
	if e.Rate() != 0.5 {
		t.Errorf("Rate = %v", e.Rate())
	}
	if s := e.String(); !strings.Contains(s, "1 FP") || !strings.Contains(s, "1 FN") {
		t.Errorf("String = %q", s)
	}
}

func TestRateEmptySafe(t *testing.T) {
	var e ErrorCounts
	if e.Rate() != 0 {
		t.Error("empty rate should be 0")
	}
}

func TestCovered(t *testing.T) {
	if !Covered(seg, 0, 0) || Covered(seg, 10, 5) || Covered(nil, 1, 1) {
		t.Error("Covered boundary semantics wrong")
	}
}

func TestRegionErrorsExact(t *testing.T) {
	// Truth: [0,10)x[0,10) in a 20x20 domain. Cluster matches exactly:
	// zero error.
	truth := []rules.Rect{{XLo: 0, XHi: 10, YLo: 0, YHi: 10}}
	fp, fn, err := RegionErrors(seg, truth, 0, 20, 0, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0 || fn != 0 {
		t.Errorf("exact overlap: fp=%v fn=%v", fp, fn)
	}
}

func TestRegionErrorsOffset(t *testing.T) {
	// Cluster covers the left half of the truth region plus an equal
	// area outside: fp ≈ fn ≈ 1/8 of the 20x20 domain... use simple
	// numbers: truth = x<10, cluster = x in [5,15), both full height.
	clusterRules := []rules.ClusteredRule{{XLo: 5, XHi: 15, YLo: 0, YHi: 20}}
	truth := []rules.Rect{{XLo: 0, XHi: 10, YLo: 0, YHi: 20}}
	fp, fn, err := RegionErrors(clusterRules, truth, 0, 20, 0, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	// FP: x in [10,15) = 1/4 of domain; FN: x in [0,5) = 1/4.
	if fp < 0.22 || fp > 0.28 || fn < 0.22 || fn > 0.28 {
		t.Errorf("fp=%v fn=%v, want ~0.25 each", fp, fn)
	}
}

func TestRegionErrorsValidation(t *testing.T) {
	truth := []rules.Rect{{XLo: 0, XHi: 1, YLo: 0, YHi: 1}}
	if _, _, err := RegionErrors(nil, truth, 0, 1, 0, 1, 1); err == nil {
		t.Error("steps<2 should error")
	}
	if _, _, err := RegionErrors(nil, truth, 1, 0, 0, 1, 10); err == nil {
		t.Error("inverted domain should error")
	}
}

// TestMeasureLatticeMatchesNaiveWalk: the lattice walk's counts equal a
// naive union-of-rectangles walk with the reference predicate, on
// random rules and truth rectangles (overlapping, empty or inverted)
// whose edges sit on lattice points or beyond the domain, and
// RegionErrors is the walk's (mined−both, truth−both) share of the
// points.
func TestMeasureLatticeMatchesNaiveWalk(t *testing.T) {
	const xLo, xHi, yLo, yHi = -3.0, 7.0, 100.0, 250.0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := 2 + rng.Intn(30)
		px := func(i int) float64 { return xLo + (xHi-xLo)*(float64(i)+0.5)/float64(steps) }
		py := func(j int) float64 { return yLo + (yHi-yLo)*(float64(j)+0.5)/float64(steps) }
		edge := func(p func(int) float64) float64 { return p(rng.Intn(steps+4) - 2) }
		rs := make([]rules.ClusteredRule, rng.Intn(6))
		for r := range rs {
			rs[r] = rules.ClusteredRule{XLo: edge(px), XHi: edge(px), YLo: edge(py), YHi: edge(py)}
		}
		truth := make([]rules.Rect, rng.Intn(5))
		for k := range truth {
			truth[k] = rules.Rect{XLo: edge(px), XHi: edge(px), YLo: edge(py), YHi: edge(py)}
		}

		want := LatticeCounts{
			Points:     steps * steps,
			RuleArea:   make([]int, len(rs)),
			RegionArea: make([]int, len(truth)),
			Inter:      make([][]int, len(rs)),
		}
		for r := range want.Inter {
			want.Inter[r] = make([]int, len(truth))
		}
		for i := 0; i < steps; i++ {
			for j := 0; j < steps; j++ {
				x, y := px(i), py(j)
				region := -1
				for k := len(truth) - 1; k >= 0; k-- {
					if halfOpen(truth[k].XLo, truth[k].XHi, truth[k].YLo, truth[k].YHi, x, y) {
						region = k
					}
				}
				mined := false
				for r, rule := range rs {
					if halfOpen(rule.XLo, rule.XHi, rule.YLo, rule.YHi, x, y) {
						mined = true
						want.RuleArea[r]++
						if region >= 0 {
							want.Inter[r][region]++
						}
					}
				}
				if mined {
					want.Mined++
				}
				if region >= 0 {
					want.Truth++
					want.RegionArea[region]++
				}
				if mined && region >= 0 {
					want.Both++
				}
			}
		}

		got, err := MeasureLattice(rs, truth, xLo, xHi, yLo, yHi, steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %d steps, rules %+v, truth %+v:\nwalk  %+v\nnaive %+v", seed, steps, rs, truth, got, want)
		}
		fp, fn, err := RegionErrors(rs, truth, xLo, xHi, yLo, yHi, steps)
		if err != nil {
			t.Fatal(err)
		}
		if wfp, wfn := float64(want.Mined-want.Both)/float64(want.Points),
			float64(want.Truth-want.Both)/float64(want.Points); fp != wfp || fn != wfn {
			t.Errorf("seed %d: RegionErrors = %g, %g, want %g, %g", seed, fp, fn, wfp, wfn)
		}
	}
}
