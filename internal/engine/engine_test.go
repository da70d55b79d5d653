package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"arcs/internal/counts"
	"arcs/internal/grid"
)

// buildBA constructs a 3x3 BinArray with 2 segments from explicit counts.
// cells[seg][x][y].
func buildBA(t *testing.T, cells [2][3][3]int) *counts.DenseArray {
	t.Helper()
	ba, err := counts.NewDense(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 2; seg++ {
		for x := 0; x < 3; x++ {
			for y := 0; y < 3; y++ {
				for n := 0; n < cells[seg][x][y]; n++ {
					ba.Add(x, y, seg)
				}
			}
		}
	}
	return ba
}

func TestGenAssociationRulesThresholds(t *testing.T) {
	// Segment 0 has 10 tuples at (0,0), 5 at (1,1), 1 at (2,2).
	// Segment 1 adds 10 at (1,1) so that cell's confidence for seg 0 is 1/3.
	ba := buildBA(t, [2][3][3]int{
		{{10, 0, 0}, {0, 5, 0}, {0, 0, 1}},
		{{0, 0, 0}, {0, 10, 0}, {0, 0, 0}},
	})
	// N = 26. Supports: (0,0)=10/26≈.385, (1,1)=5/26≈.192, (2,2)=1/26≈.038.
	got, err := GenAssociationRules(ba, 0, 0.1, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("minSup 0.1: got %d rules, want 2 (cells (0,0) and (1,1)): %v", len(got), got)
	}
	// Confidence filter: (1,1) has conf 5/15 = 1/3; requiring 0.5 drops it.
	got, err = GenAssociationRules(ba, 0, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].X != 0 || got[0].Y != 0 {
		t.Fatalf("minConf 0.5: got %v, want only cell (0,0)", got)
	}
	if math.Abs(got[0].Support-10.0/26) > 1e-12 {
		t.Errorf("support = %v", got[0].Support)
	}
	if got[0].Confidence != 1 {
		t.Errorf("confidence = %v", got[0].Confidence)
	}
}

func TestGenAssociationRulesZeroThresholdsReturnAllOccupied(t *testing.T) {
	ba := buildBA(t, [2][3][3]int{
		{{1, 0, 1}, {0, 1, 0}, {1, 0, 1}},
		{},
	})
	got, err := GenAssociationRules(ba, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d rules, want 5", len(got))
	}
	// Deterministic row-major order.
	if got[0].X != 0 || got[0].Y != 0 || got[1].X != 0 || got[1].Y != 2 {
		t.Errorf("order not row-major: %v", got)
	}
}

func TestGenAssociationRulesValidation(t *testing.T) {
	ba := buildBA(t, [2][3][3]int{})
	th, err := NewThresholds(ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		seg           int
		minSup, minCf float64
	}{
		{"bad segment", 5, 0.1, 0.1},
		{"negative support", 0, -0.1, 0.1},
		{"NaN support", 0, math.NaN(), 0.1},
		{"confidence > 1", 0, 0.1, 1.5},
		{"NaN confidence", 0, 0.1, math.NaN()},
	} {
		if _, err := GenAssociationRules(ba, tc.seg, tc.minSup, tc.minCf); err == nil {
			t.Errorf("GenAssociationRules: %s should error", tc.name)
		}
		if tc.seg != 0 {
			if _, err := NewThresholds(ba, tc.seg); err == nil {
				t.Errorf("NewThresholds: %s should error", tc.name)
			}
			continue
		}
		if _, err := th.RuleGrid(tc.minSup, tc.minCf); err == nil {
			t.Errorf("RuleGrid: %s should error", tc.name)
		}
	}
}

// TestRuleGridSetsRuleCells: rule X=i ∧ Y=j sets cell (row j, col i) of
// a grid with a row per y bin and a column per x bin.
func TestRuleGridSetsRuleCells(t *testing.T) {
	ba, err := counts.NewDense(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ba.Add(1, 2, 0)
	ba.Add(0, 0, 0)
	th, err := NewThresholds(ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := th.RuleGrid(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Rows() != 4 || bm.Cols() != 3 {
		t.Fatalf("grid is %d×%d, want 4 rows of 3", bm.Rows(), bm.Cols())
	}
	if !bm.Get(2, 1) || !bm.Get(0, 0) || bm.PopCount() != 2 {
		t.Errorf("rule cells (1, 2) and (0, 0) set\n%s\nwant cells (row 2, col 1) and (row 0, col 0)", bm)
	}
}

// TestRuleGridMatchesGenAssociationRules: on dense and sparse backends,
// the index sets exactly the cells of the rules GenAssociationRules
// derives, at every support level and every confidence level the walk
// offers there, where cells tie with the bar, and at zero.
func TestRuleGridMatchesGenAssociationRules(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const nx, ny, nseg = 23, 70, 3
	dense, err := counts.NewDense(nx, ny, nseg)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := counts.NewSparse(nx, ny, nseg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		// Skewed draws leave empty cells and repeat supports.
		x, y, seg := rng.Intn(nx)*rng.Intn(2), rng.Intn(ny), rng.Intn(nseg)
		dense.Add(x, y, seg)
		sparse.Add(x, y, seg)
	}
	for _, ba := range []counts.Backend{dense, sparse} {
		for seg := 0; seg < nseg; seg++ {
			th, err := NewThresholds(ba, seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sup := range append([]float64{0}, th.Supports()...) {
				for _, conf := range append([]float64{0}, th.ConfidencesAtOrAbove(sup)...) {
					checkRuleGrid(t, ba, th, seg, sup, conf)
				}
			}
		}
	}
}

// TestRuleGridSupportBarRoundsUp: at 25 tuples a 7-tuple cell's support
// 7/25, times 25, rounds above 7, so that support as a threshold
// excludes the cell. The index cuts on counts by the same expression as
// GenAssociationRules, not on the float supports, which would keep it.
func TestRuleGridSupportBarRoundsUp(t *testing.T) {
	ba, err := counts.NewDense(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ba.AddN(0, 0, 0, 7)
	ba.AddN(1, 0, 1, 18)
	th, err := NewThresholds(ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	sup := th.Supports()[0]
	if sup != 7.0/25 || sup*25 <= 7 {
		t.Fatalf("support %v, %v×25; want 7/25 rounding above 7", sup, sup)
	}
	bm := checkRuleGrid(t, ba, th, 0, sup, 0)
	if bm.Any() {
		t.Errorf("support bar %v admits the 7-tuple cell:\n%s", sup, bm)
	}
}

// checkRuleGrid fails the test unless the index's rule grid at (sup,
// conf) sets exactly the cells of GenAssociationRules' rules, and
// returns it.
func checkRuleGrid(t *testing.T, ba counts.Backend, th *Thresholds, seg int, sup, conf float64) *grid.Bitmap {
	t.Helper()
	cellRules, err := GenAssociationRules(ba, seg, sup, conf)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := th.RuleGrid(sup, conf)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := grid.New(ba.NY(), ba.NX())
	for _, r := range cellRules {
		want.Set(r.Y, r.X)
	}
	if !reflect.DeepEqual(bm, want) {
		t.Fatalf("%T seg %d at (%g, %g): RuleGrid\n%s\nwant the %d rule cells\n%s",
			ba, seg, sup, conf, bm, len(cellRules), want)
	}
	return bm
}

func TestGenAssociationRulesOtherSegment(t *testing.T) {
	ba := buildBA(t, [2][3][3]int{
		{{5, 0, 0}, {0, 0, 0}, {0, 0, 0}},
		{{0, 0, 0}, {0, 0, 0}, {0, 0, 5}},
	})
	got, err := GenAssociationRules(ba, 1, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].X != 2 || got[0].Y != 2 || got[0].Seg != 1 {
		t.Fatalf("segment 1 rules = %v", got)
	}
}

func TestThresholdsStructure(t *testing.T) {
	// Three occupied seg-0 cells with distinct supports; one shares a
	// support value with another but differs in confidence.
	ba := buildBA(t, [2][3][3]int{
		{{4, 0, 0}, {0, 4, 0}, {0, 0, 2}},
		{{0, 0, 0}, {0, 4, 0}, {0, 0, 0}},
	})
	// N = 14. Supports: (0,0) 4/14, (1,1) 4/14, (2,2) 2/14.
	// Confidences: (0,0) 1.0, (1,1) 0.5, (2,2) 1.0.
	th, err := NewThresholds(ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	sups := th.Supports()
	if len(sups) != 2 {
		t.Fatalf("unique supports = %v, want 2", sups)
	}
	if sups[0] >= sups[1] {
		t.Error("supports not ascending")
	}
	// The shared support 4/14 has two confidences: 0.5 and 1.0.
	confs := th.ConfidencesAtOrAbove(sups[1])
	if len(confs) != 2 || confs[0] != 0.5 || confs[1] != 1 {
		t.Errorf("ConfidencesAtOrAbove(4/14) = %v", confs)
	}
	if th.Total() != 10 {
		t.Errorf("Total = %d, want 10", th.Total())
	}
	// Each occupied cell costs 16 bytes in the list.
	if size := unsafe.Sizeof(ruleCell{}); size != 16 {
		t.Errorf("a cell takes %d bytes, want 16", size)
	}
	if cells, bytes := th.Footprint(); cells != 3 || bytes < 3*16 {
		t.Errorf("Footprint = %d cells, %d bytes; want 3 cells and at least 48 bytes", cells, bytes)
	}
}

func TestThresholdsAtOrAbove(t *testing.T) {
	ba := buildBA(t, [2][3][3]int{
		{{4, 0, 0}, {0, 4, 0}, {0, 0, 2}},
		{{0, 0, 0}, {0, 4, 0}, {0, 0, 0}},
	})
	th, err := NewThresholds(ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Above the low support only the two 4/14 cells remain, with
	// confidences {0.5, 1.0}.
	confs := th.ConfidencesAtOrAbove(3.0 / 14)
	if len(confs) != 2 || confs[0] != 0.5 || confs[1] != 1 {
		t.Errorf("ConfidencesAtOrAbove = %v", confs)
	}
	// A threshold above every support yields nothing.
	if confs := th.ConfidencesAtOrAbove(0.9); len(confs) != 0 {
		t.Errorf("expected empty, got %v", confs)
	}
}

func TestThresholdsEmptyAndInvalid(t *testing.T) {
	ba, _ := counts.NewDense(2, 2, 2)
	th, err := NewThresholds(ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cells, _ := th.Footprint(); len(th.Supports()) != 0 || cells != 0 || th.Total() != 0 {
		t.Error("empty BinArray should yield empty thresholds")
	}
	if bm, err := th.RuleGrid(0, 0); err != nil || bm.Any() {
		t.Errorf("empty index grid = %v, %v; want an empty grid", bm, err)
	}
	if _, err := NewThresholds(ba, 9); err == nil {
		t.Error("bad segment should error")
	}
	// A grid whose bitmap positions overflow uint32 is refused.
	huge, err := counts.NewSparse(1<<17, 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewThresholds(huge, 0); err == nil {
		t.Error("a 2^17×2^16 grid should be too large for the index")
	}
}

func TestMiningMonotoneInSupport(t *testing.T) {
	// Raising the support threshold can only shrink the rule set.
	ba := buildBA(t, [2][3][3]int{
		{{6, 3, 1}, {2, 8, 0}, {0, 1, 4}},
		{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
	})
	prev := -1
	for _, sup := range []float64{0, 0.05, 0.1, 0.2, 0.5} {
		got, err := GenAssociationRules(ba, 0, sup, 0)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(got) > prev {
			t.Errorf("rule count grew from %d to %d when support rose to %v", prev, len(got), sup)
		}
		prev = len(got)
	}
}
