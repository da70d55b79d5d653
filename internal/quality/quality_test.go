package quality

import (
	"math"
	"strings"
	"testing"

	"arcs/internal/core"
	"arcs/internal/dataset"
	"arcs/internal/obs"
	"arcs/internal/rules"
)

// testFixture builds a 10×10 value-space world: Group A is exactly the
// rectangle [0,5)×[0,5), the test table samples the unit lattice, and a
// single rule either matches the truth exactly or is shifted.
func testFixture(t *testing.T, rule rules.ClusteredRule) (*core.Result, *dataset.Table) {
	t.Helper()
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "group", Kind: dataset.Categorical},
	)
	tb := dataset.NewTable(schema)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			x, y := float64(i)+0.5, float64(j)+0.5
			label := "B"
			if x < 5 && y < 5 {
				label = "A"
			}
			if err := tb.AppendValues(x, y, label); err != nil {
				t.Fatal(err)
			}
		}
	}
	res := &core.Result{
		CritValue:     "A",
		Rules:         []rules.ClusteredRule{rule},
		MinSupport:    0.01,
		MinConfidence: 0.5,
		Cost:          42,
	}
	return res, tb
}

func exactRule() rules.ClusteredRule {
	return rules.ClusteredRule{
		XAttr: "x", YAttr: "y", CritAttr: "group", CritValue: "A",
		XLo: 0, XHi: 5, YLo: 0, YHi: 5,
	}
}

func defaultOptions() Options {
	return Options{
		XAttr: "x", YAttr: "y", CritAttr: "group", CritValue: "A",
		Truth: []rules.Rect{{XLo: 0, XHi: 5, YLo: 0, YHi: 5}},
		XLo:   0,
		XHi:   10,
		YLo:   0,
		YHi:   10,
	}
}

func TestEvaluatePerfectRecovery(t *testing.T) {
	res, tb := testFixture(t, exactRule())
	rep, err := Evaluate(res, tb, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrorPct != 0 || rep.FalsePositives != 0 || rep.FalseNegatives != 0 {
		t.Errorf("exact rule should classify perfectly, got %+v", rep)
	}
	if rep.TestN != 100 || rep.Rules != 1 || rep.MDLCost != 42 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Recovery == nil {
		t.Fatal("recovery not computed despite Truth")
	}
	r := rep.Recovery
	if r.Precision != 1 || r.Recall != 1 || r.IoU != 1 {
		t.Errorf("exact rule should have perfect recovery, got %+v", r)
	}
	if len(r.PerRegionIoU) != 1 || r.PerRegionIoU[0] != 1 {
		t.Errorf("per-region IoU should be [1], got %v", r.PerRegionIoU)
	}
}

func TestEvaluateShiftedRule(t *testing.T) {
	// Rule shifted right by 2: covers [2,7)×[0,5); overlap with truth is
	// [2,5)×[0,5) = 15 of 25 truth cells and 25 rule cells.
	shifted := exactRule()
	shifted.XLo, shifted.XHi = 2, 7
	res, tb := testFixture(t, shifted)
	rep, err := Evaluate(res, tb, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 10 FP (x in [5,7), y<5 covered but Group B) + 10 FN (x<2, y<5).
	if rep.FalsePositives != 10 || rep.FalseNegatives != 10 {
		t.Errorf("FP/FN = %d/%d, want 10/10", rep.FalsePositives, rep.FalseNegatives)
	}
	if math.Abs(rep.ErrorPct-20) > 1e-9 {
		t.Errorf("ErrorPct = %g, want 20", rep.ErrorPct)
	}
	r := rep.Recovery
	if r == nil {
		t.Fatal("no recovery")
	}
	wantPR := 15.0 / 25.0
	wantIoU := 15.0 / 35.0
	if math.Abs(r.Precision-wantPR) > 0.01 || math.Abs(r.Recall-wantPR) > 0.01 {
		t.Errorf("precision/recall = %g/%g, want ~%g", r.Precision, r.Recall, wantPR)
	}
	if math.Abs(r.IoU-wantIoU) > 0.01 {
		t.Errorf("IoU = %g, want ~%g", r.IoU, wantIoU)
	}
	if math.Abs(r.PerRegionIoU[0]-wantIoU) > 0.01 {
		t.Errorf("PerRegionIoU = %v, want ~%g", r.PerRegionIoU, wantIoU)
	}
}

func TestEvaluateNoRules(t *testing.T) {
	res, tb := testFixture(t, exactRule())
	res.Rules = nil
	rep, err := Evaluate(res, tb, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Everything in Group A is a false negative; precision defaults to 1.
	if rep.FalsePositives != 0 || rep.FalseNegatives != 25 {
		t.Errorf("FP/FN = %d/%d, want 0/25", rep.FalsePositives, rep.FalseNegatives)
	}
	if rep.RuleMeasures != nil {
		t.Errorf("no rules should yield no measures, got %v", rep.RuleMeasures)
	}
	r := rep.Recovery
	if r.Precision != 1 || r.Recall != 0 || r.IoU != 0 {
		t.Errorf("empty segmentation recovery = %+v, want precision 1, recall 0, IoU 0", r)
	}
	if r.PerRegionIoU[0] != 0 {
		t.Errorf("PerRegionIoU = %v, want [0]", r.PerRegionIoU)
	}
}

func TestRuleMeasures(t *testing.T) {
	res, tb := testFixture(t, exactRule())
	rep, err := Evaluate(res, tb, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RuleMeasures) != 1 {
		t.Fatalf("want 1 rule measure, got %d", len(rep.RuleMeasures))
	}
	m := rep.RuleMeasures[0]
	if !strings.Contains(m.Rule, "group = A") {
		t.Errorf("rendered rule %q should mention the criterion", m.Rule)
	}
	// The exact rule covers the 25 Group A tuples of 100: support 0.25,
	// confidence 1, prior 0.25 so lift 4, conviction capped, interest
	// 0.25 − 0.25·0.25.
	if math.Abs(m.Support-0.25) > 1e-9 {
		t.Errorf("Support = %g, want 0.25", m.Support)
	}
	if m.Confidence != 1 {
		t.Errorf("Confidence = %g, want 1", m.Confidence)
	}
	if math.Abs(m.Lift-4) > 1e-9 {
		t.Errorf("Lift = %g, want 4", m.Lift)
	}
	if m.Conviction != MaxConviction {
		t.Errorf("Conviction = %g, want cap %g", m.Conviction, MaxConviction)
	}
	if math.Abs(m.Interest-0.1875) > 1e-9 {
		t.Errorf("Interest = %g, want 0.1875", m.Interest)
	}
}

func TestRuleMeasuresImperfectRule(t *testing.T) {
	// Rule covering the whole plane: confidence = prior, lift 1,
	// conviction 1, interest 0 — the independence baseline.
	all := exactRule()
	all.XHi, all.YHi = 10, 10
	res, tb := testFixture(t, all)
	rep, err := Evaluate(res, tb, Options{XAttr: "x", YAttr: "y", CritAttr: "group", CritValue: "A"})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.RuleMeasures[0]
	if math.Abs(m.Lift-1) > 1e-9 {
		t.Errorf("Lift = %g, want 1", m.Lift)
	}
	if math.Abs(m.Conviction-1) > 1e-9 {
		t.Errorf("Conviction = %g, want 1", m.Conviction)
	}
	if math.Abs(m.Interest) > 1e-9 {
		t.Errorf("Interest = %g, want 0", m.Interest)
	}
	if rep.Recovery != nil {
		t.Error("recovery computed without Truth")
	}
}

func TestEvaluateValidation(t *testing.T) {
	res, tb := testFixture(t, exactRule())
	cases := []struct {
		name string
		res  *core.Result
		tb   *dataset.Table
		opts Options
	}{
		{"nil result", nil, tb, defaultOptions()},
		{"nil table", res, nil, defaultOptions()},
		{"empty table", res, dataset.NewTable(tb.Schema()), defaultOptions()},
		{"unknown x attr", res, tb, Options{XAttr: "nope", YAttr: "y", CritAttr: "group", CritValue: "A"}},
		{"unknown y attr", res, tb, Options{XAttr: "x", YAttr: "nope", CritAttr: "group", CritValue: "A"}},
		{"unknown crit attr", res, tb, Options{XAttr: "x", YAttr: "y", CritAttr: "nope", CritValue: "A"}},
		{"unknown crit value", res, tb, Options{XAttr: "x", YAttr: "y", CritAttr: "group", CritValue: "Z"}},
		{"bad domain", res, tb, func() Options { o := defaultOptions(); o.XHi = o.XLo; return o }()},
	}
	for _, tc := range cases {
		if _, err := Evaluate(tc.res, tc.tb, tc.opts); err == nil {
			t.Errorf("%s: Evaluate succeeded, want error", tc.name)
		}
	}
}

func TestObserve(t *testing.T) {
	res, tb := testFixture(t, exactRule())
	rep, err := Evaluate(res, tb, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep.Observe(reg)
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"quality_error_rate_pct":     0,
		"quality_mdl_cost":           42,
		"quality_recovery_iou":       1,
		"quality_recovery_precision": 1,
		"quality_recovery_recall":    1,
	} {
		got, ok := snap.FloatGauges[name]
		if !ok {
			t.Errorf("float gauge %q not published", name)
		} else if got != want {
			t.Errorf("float gauge %q = %g, want %g", name, got, want)
		}
	}
	if got := snap.Gauges["quality_rules"]; got != 1 {
		t.Errorf("gauge quality_rules = %d, want 1", got)
	}
	for _, h := range []string{"quality_rule_lift", "quality_rule_conviction"} {
		if snap.Histograms[h].Count != 1 {
			t.Errorf("histogram %q count = %d, want 1", h, snap.Histograms[h].Count)
		}
	}

	// Nil-safety: neither side may panic.
	rep.Observe(nil)
	var nilRep *Report
	nilRep.Observe(reg)
}
