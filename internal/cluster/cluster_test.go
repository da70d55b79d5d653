package cluster

import (
	"strings"
	"testing"

	"arcs/internal/binning"
	"arcs/internal/counts"
	"arcs/internal/grid"
	"arcs/internal/rules"
)

func testMeta() Meta {
	return Meta{XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A"}
}

func TestFromRectsConvertsBinsToValues(t *testing.T) {
	ba, _ := counts.NewDense(4, 4, 2)
	// Rect cols 1-2, rows 0-1. Fill it with 6 seg-0 tuples and 2 seg-1.
	for x := 1; x <= 2; x++ {
		for y := 0; y <= 1; y++ {
			ba.Add(x, y, 0)
		}
	}
	ba.Add(1, 0, 0)
	ba.Add(2, 1, 0)
	ba.Add(1, 1, 1)
	ba.Add(2, 0, 1)
	xb, _ := binning.NewEquiWidth(20, 100, 4)     // width 20
	yb, _ := binning.NewEquiWidth(0, 200_000, 4)  // width 50k
	rect := grid.Rect{R0: 0, C0: 1, R1: 1, C1: 2} // y bins 0-1, x bins 1-2
	rs, err := FromRects([]grid.Rect{rect}, ba, 0, xb, yb, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("rules = %v", rs)
	}
	r := rs[0]
	if r.XLo != 40 || r.XHi != 80 {
		t.Errorf("x range = [%v, %v), want [40, 80)", r.XLo, r.XHi)
	}
	if r.YLo != 0 || r.YHi != 100_000 {
		t.Errorf("y range = [%v, %v), want [0, 100000)", r.YLo, r.YHi)
	}
	// 6 seg tuples of 8 total in rect; N = 8.
	if r.Support != 6.0/8 {
		t.Errorf("support = %v, want 0.75", r.Support)
	}
	if r.Confidence != 6.0/8 {
		t.Errorf("confidence = %v, want 0.75", r.Confidence)
	}
	if got := r.String(); !strings.Contains(got, "age") || !strings.Contains(got, "group = A") {
		t.Errorf("String = %q", got)
	}
}

func TestFromRectsValidation(t *testing.T) {
	ba, _ := counts.NewDense(2, 2, 1)
	xb, _ := binning.NewEquiWidth(0, 1, 2)
	yb, _ := binning.NewEquiWidth(0, 1, 2)
	if _, err := FromRects([]grid.Rect{{R0: 0, C0: 0, R1: 0, C1: 5}}, ba, 0, xb, yb, testMeta()); err == nil {
		t.Error("rect outside grid should error")
	}
	if _, err := FromRects(nil, ba, 7, xb, yb, testMeta()); err == nil {
		t.Error("bad segment should error")
	}
}

func TestFromRectsEmptyArray(t *testing.T) {
	ba, _ := counts.NewDense(2, 2, 1)
	xb, _ := binning.NewEquiWidth(0, 1, 2)
	yb, _ := binning.NewEquiWidth(0, 1, 2)
	rs, err := FromRects([]grid.Rect{{R0: 0, C0: 0, R1: 0, C1: 0}}, ba, 0, xb, yb, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Support != 0 || rs[0].Confidence != 0 {
		t.Error("empty BinArray should yield zero measures, not NaN")
	}
}

func TestCombineSharedAttribute(t *testing.T) {
	ab := rules.ClusteredRule{
		XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A",
		XLo: 30, XHi: 50, YLo: 40_000, YHi: 80_000,
		Support: 0.2, Confidence: 0.9,
	}
	bc := rules.ClusteredRule{
		XAttr: "salary", YAttr: "loan", CritAttr: "group", CritValue: "A",
		XLo: 60_000, XHi: 100_000, YLo: 0, YHi: 200_000,
		Support: 0.1, Confidence: 0.8,
	}
	got, err := Combine([]rules.ClusteredRule{ab}, []rules.ClusteredRule{bc})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("combined rules = %v", got)
	}
	m := got[0]
	if len(m.Ranges) != 3 {
		t.Fatalf("ranges = %v", m.Ranges)
	}
	// Ranges sorted by attribute: age, loan, salary.
	if m.Ranges[0].Attr != "age" || m.Ranges[1].Attr != "loan" || m.Ranges[2].Attr != "salary" {
		t.Errorf("range order = %v", m.Ranges)
	}
	// Shared salary range is the intersection [60k, 80k).
	if m.Ranges[2].Lo != 60_000 || m.Ranges[2].Hi != 80_000 {
		t.Errorf("salary intersection = [%v, %v)", m.Ranges[2].Lo, m.Ranges[2].Hi)
	}
	if m.Support != 0.1 || m.Confidence != 0.8 {
		t.Errorf("conservative measures = %v, %v", m.Support, m.Confidence)
	}
	if s := m.String(); !strings.Contains(s, "age") || !strings.Contains(s, "=> group = A") {
		t.Errorf("String = %q", s)
	}
}

func TestCombineNonOverlappingRangesSkipped(t *testing.T) {
	ab := rules.ClusteredRule{
		XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A",
		YLo: 40_000, YHi: 50_000, XLo: 0, XHi: 1,
	}
	bc := rules.ClusteredRule{
		XAttr: "salary", YAttr: "loan", CritAttr: "group", CritValue: "A",
		XLo: 90_000, XHi: 100_000, YLo: 0, YHi: 1,
	}
	got, err := Combine([]rules.ClusteredRule{ab}, []rules.ClusteredRule{bc})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("disjoint salary ranges should not combine: %v", got)
	}
}

func TestCombineDifferentCriteriaSkipped(t *testing.T) {
	a := rules.ClusteredRule{XAttr: "age", YAttr: "salary", CritAttr: "group", CritValue: "A", YLo: 0, YHi: 10, XLo: 0, XHi: 1}
	b := rules.ClusteredRule{XAttr: "salary", YAttr: "loan", CritAttr: "group", CritValue: "B", XLo: 0, XHi: 10, YLo: 0, YHi: 1}
	got, err := Combine([]rules.ClusteredRule{a}, []rules.ClusteredRule{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("different criterion values should not combine: %v", got)
	}
}

func TestCombineNoSharedAttribute(t *testing.T) {
	a := rules.ClusteredRule{XAttr: "age", YAttr: "salary", CritAttr: "g", CritValue: "A"}
	b := rules.ClusteredRule{XAttr: "loan", YAttr: "hvalue", CritAttr: "g", CritValue: "A"}
	got, err := Combine([]rules.ClusteredRule{a}, []rules.ClusteredRule{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("no shared attribute should not combine: %v", got)
	}
}

func TestCombineBothSharedErrors(t *testing.T) {
	a := rules.ClusteredRule{XAttr: "age", YAttr: "salary", CritAttr: "g", CritValue: "A", XLo: 0, XHi: 10, YLo: 0, YHi: 10}
	b := rules.ClusteredRule{XAttr: "age", YAttr: "salary", CritAttr: "g", CritValue: "A", XLo: 0, XHi: 10, YLo: 0, YHi: 10}
	if _, err := Combine([]rules.ClusteredRule{a}, []rules.ClusteredRule{b}); err == nil {
		t.Error("rules sharing both attributes should error")
	}
}
