package engine

import (
	"math"
	"testing"

	"arcs/internal/counts"
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
	if _, err := GenAssociationRules(ba, 5, 0.1, 0.1); err == nil {
		t.Error("bad segment should error")
	}
	if _, err := GenAssociationRules(ba, 0, -0.1, 0.1); err == nil {
		t.Error("negative support should error")
	}
	if _, err := GenAssociationRules(ba, 0, 0.1, 1.5); err == nil {
		t.Error("confidence > 1 should error")
	}
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
	confs := th.ConfidencesAt(1)
	if len(confs) != 2 || confs[0] != 0.5 || confs[1] != 1 {
		t.Errorf("ConfidencesAt(1) = %v", confs)
	}
	if th.NumCells() != 3 {
		t.Errorf("NumCells = %d", th.NumCells())
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
	if len(th.Supports()) != 0 || th.NumCells() != 0 {
		t.Error("empty BinArray should yield empty thresholds")
	}
	if _, err := NewThresholds(ba, 9); err == nil {
		t.Error("bad segment should error")
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
