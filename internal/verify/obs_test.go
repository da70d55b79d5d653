package verify

import (
	"math/rand"
	"strings"
	"testing"

	"arcs/internal/obs"
	"arcs/internal/rules"
)

// TestObsIndexFallbackCountersAndReasons: the slot-grid fast path and
// the rect-scan fallback are both counted, and every fallback rule is
// reported with the edges that disqualified it — the degradation is
// never silent.
func TestObsIndexFallbackCountersAndReasons(t *testing.T) {
	tb, xB, yB := indexFixture(t, rand.New(rand.NewSource(11)), 100)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	fast := reg.Counter("verify_fastpath_rules_total")
	fall := reg.Counter("verify_fallback_rules_total")
	var reported []Fallback
	ix.Observe(fast, fall, func(fb Fallback) { reported = append(reported, fb) })

	aligned := rules.ClusteredRule{XLo: xB[0], XHi: xB[2], YLo: yB[1], YHi: yB[3]}
	offX := rules.ClusteredRule{XLo: 3.7, XHi: xB[2], YLo: yB[1], YHi: yB[3]}
	offBoth := rules.ClusteredRule{XLo: xB[0], XHi: 47.1, YLo: 0.5, YHi: yB[3]}
	cv := ix.NewCoverage([]rules.ClusteredRule{aligned, offX, aligned, offBoth})
	defer cv.Release()

	if got := fast.Value(); got != 2 {
		t.Errorf("fast-path counter = %d, want 2", got)
	}
	if got := fall.Value(); got != 2 {
		t.Errorf("fallback counter = %d, want 2", got)
	}
	if len(reported) != 2 {
		t.Fatalf("callback saw %d fallback rules, want 2", len(reported))
	}
	if reported[0].Rule != offX || reported[1].Rule != offBoth {
		t.Errorf("callback saw rules %+v and %+v, want offX then offBoth", reported[0].Rule, reported[1].Rule)
	}
	if r := reported[0].Reason; !strings.Contains(r, "x_lo=3.7") {
		t.Errorf("offX reason %q does not name the misaligned edge x_lo=3.7", r)
	}
	if r := reported[1].Reason; !strings.Contains(r, "x_hi=47.1") || !strings.Contains(r, "y_lo=0.5") {
		t.Errorf("offBoth reason %q does not name both misaligned edges", r)
	}

	// Coverage semantics are unchanged by the hooks: fallback rules are
	// still consulted, so a tuple inside offBoth's rectangle is covered.
	if got, want := ix.Measure([]rules.ClusteredRule{offBoth}, 1),
		Measure([]rules.ClusteredRule{offBoth}, tb, 0, 1, 2, 1); got != want {
		t.Errorf("indexed measure with fallback rule = %+v, scan measure = %+v", got, want)
	}
}

// TestObsIndexNilHooksAreSafe: an Index with no Observe call (the
// default) takes the same paths with nil-safe counters.
func TestObsIndexNilHooksAreSafe(t *testing.T) {
	tb, xB, yB := indexFixture(t, rand.New(rand.NewSource(13)), 50)
	ix, err := NewIndex(tb, 0, 1, 2, xB, yB)
	if err != nil {
		t.Fatal(err)
	}
	rs := []rules.ClusteredRule{
		{XLo: xB[0], XHi: xB[1], YLo: yB[0], YHi: yB[1]},
		{XLo: 1.23, XHi: xB[1], YLo: yB[0], YHi: yB[1]},
	}
	if got, want := ix.Measure(rs, 1), Measure(rs, tb, 0, 1, 2, 1); got != want {
		t.Errorf("indexed measure without hooks = %+v, scan measure = %+v", got, want)
	}
}
