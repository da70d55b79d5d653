package synth

import (
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// TestGroundTruthRegionsMatchLabel: for every function that exports
// generating regions, region containment in the (XAttr, YAttr) plane
// must agree with IsGroupA on tuples that vary only those attributes —
// the regions ARE the function, not an approximation of it.
func TestGroundTruthRegionsMatchLabel(t *testing.T) {
	schema := NewSchema()
	for fn := 1; fn <= 10; fn++ {
		tr, err := GroundTruth(fn)
		if err != nil {
			t.Fatalf("GroundTruth(%d): %v", fn, err)
		}
		if tr.Function != fn {
			t.Errorf("GroundTruth(%d).Function = %d", fn, tr.Function)
		}
		for _, name := range []string{tr.XAttr, tr.YAttr} {
			if _, err := schema.Index(name); err != nil {
				t.Errorf("function %d: pair attribute %q not in schema: %v", fn, name, err)
			}
		}
		if !tr.HasRegions() {
			continue
		}
		xIdx := schema.MustIndex(tr.XAttr)
		yIdx := schema.MustIndex(tr.YAttr)
		tuple := make(dataset.Tuple, numCols)
		const steps = 120
		for i := 0; i < steps; i++ {
			x := tr.XLo + (tr.XHi-tr.XLo)*(float64(i)+0.5)/steps
			for j := 0; j < steps; j++ {
				y := tr.YLo + (tr.YHi-tr.YLo)*(float64(j)+0.5)/steps
				tuple[xIdx] = x
				if tr.CategoricalY {
					// Code-space axis: the function reads whole codes.
					tuple[yIdx] = float64(int(y))
				} else {
					tuple[yIdx] = y
				}
				got := tr.ContainsPoint(x, y)
				want := tr.Label(tuple)
				if got != want {
					t.Fatalf("function %d at (%g, %g): regions say %v, IsGroupA says %v",
						fn, x, y, got, want)
				}
			}
		}
	}
}

// TestGroundTruthValidation: out-of-range function numbers error
// instead of panicking.
func TestGroundTruthValidation(t *testing.T) {
	for _, fn := range []int{0, 11, -3} {
		if _, err := GroundTruth(fn); err == nil {
			t.Errorf("GroundTruth(%d) succeeded, want error", fn)
		}
	}
}

// TestGroundTruthRegionHalfOpen: region containment is half-open so
// adjacent disjuncts never double-claim a boundary point.
func TestGroundTruthRegionHalfOpen(t *testing.T) {
	r := rules.Rect{XLo: 20, XHi: 40, YLo: 0, YHi: 2}
	if r.Contains(40, 1) {
		t.Error("XHi boundary should be exclusive")
	}
	if !r.Contains(20, 0) {
		t.Error("XLo/YLo boundary should be inclusive")
	}
	if r.Contains(30, 2) {
		t.Error("YHi boundary should be exclusive")
	}
}
