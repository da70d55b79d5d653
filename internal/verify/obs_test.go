package verify

import (
	"math/rand"
	"testing"

	"arcs/internal/obs"
	"arcs/internal/rules"
)

// TestObsIndexRuleCounter: every rule rasterized onto the slot grid is
// counted, an empty or inverted one too, on each measurement.
func TestObsIndexRuleCounter(t *testing.T) {
	tb, xB, yB := indexFixture(t, rand.New(rand.NewSource(11)), 100)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB, draws(4))
	if err != nil {
		t.Fatal(err)
	}
	rasterized := obs.NewRegistry().Counter("verify_fastpath_rules_total")
	ix.Observe(rasterized)

	aligned := rules.ClusteredRule{XLo: xB[0], XHi: xB[2], YLo: yB[1], YHi: yB[3]}
	inverted := rules.ClusteredRule{XLo: xB[3], XHi: xB[1], YLo: yB[1], YHi: yB[3]}
	rs := []rules.ClusteredRule{aligned, inverted, aligned}
	if _, err := ix.Measure(rs, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.MeanErrors(rs, 1); err != nil {
		t.Fatal(err)
	}
	if got := rasterized.Value(); got != 6 {
		t.Errorf("rasterized-rule counter = %d, want 6", got)
	}
}

// TestObsIndexNilHooksAreSafe: an Index with no Observe call (the
// default) takes the same paths with a nil-safe counter.
func TestObsIndexNilHooksAreSafe(t *testing.T) {
	tb, xB, yB := indexFixture(t, rand.New(rand.NewSource(13)), 50)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB, draws(5))
	if err != nil {
		t.Fatal(err)
	}
	rs := []rules.ClusteredRule{
		{XLo: xB[0], XHi: xB[1], YLo: yB[0], YHi: yB[1]},
		{XLo: xB[2], XHi: xB[5], YLo: yB[1], YHi: yB[4]},
	}
	got, err := ix.Measure(rs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := Measure(rs, tb, 0, 1, 2, 1); got != want {
		t.Errorf("indexed measure without hooks = %+v, scan measure = %+v", got, want)
	}
}
