package core

import (
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/optimizer"
	"arcs/internal/synth"
	"arcs/internal/verify"
)

// synthSource builds the synthetic stream for cfg and returns its source.
func synthSource(tb testing.TB, cfg synth.Config) *dataset.FuncSource {
	tb.Helper()
	st, err := synth.NewStream(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return st.Source()
}

// f2System builds an ARCS system over Function 2 data.
func f2System(t *testing.T, n int, outliers float64, cfg Config) *System {
	t.Helper()
	gen := synthSource(t, synth.Config{
		Function: 2, N: n, Seed: 42,
		Perturbation: 0.05, OutlierFraction: outliers, FracA: 0.4,
	})
	if cfg.XAttr == "" {
		cfg.XAttr = synth.AttrAge
	}
	if cfg.YAttr == "" {
		cfg.YAttr = synth.AttrSalary
	}
	if cfg.CritAttr == "" {
		cfg.CritAttr = synth.AttrGroup
	}
	if cfg.CritValue == "" {
		cfg.CritValue = synth.GroupA
	}
	sys, err := New(gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	gen := synthSource(t, synth.Config{Function: 2, N: 100, Seed: 1})
	bad := []Config{
		{}, // missing attrs
		{XAttr: "age", YAttr: "age", CritAttr: "group"},        // same LHS
		{XAttr: "age", YAttr: "group", CritAttr: "group"},      // crit on LHS
		{XAttr: "age", YAttr: "salary", CritAttr: "nope"},      // unknown attr
		{XAttr: "age", YAttr: "salary", CritAttr: "salary"},    // quantitative criterion
		{XAttr: "elevel", YAttr: "zipcode", CritAttr: "group"}, // both LHS categorical
	}
	for i, cfg := range bad {
		gen.Reset()
		if _, err := New(gen, cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

func TestMineAtFixedThresholdsFindsThreeClusters(t *testing.T) {
	// The paper's §4.2 result: at minsup 0.01 / minconf 0.39 on F2 data
	// with outliers, ARCS produces exactly three clustered rules, one
	// per disjunct.
	sys := f2System(t, 30_000, 0.10, Config{NumBins: 50})
	rs, err := sys.MineAt(0.0001, 0.39)
	if err != nil {
		t.Fatal(err)
	}
	// The union of the Function 2 disjuncts admits several near-optimal
	// rectangle covers (the young and middle bands overlap in salary),
	// so the greedy cover may use 3 or 4 rectangles; the paper reports 3.
	if len(rs) < 3 || len(rs) > 4 {
		for _, r := range rs {
			t.Logf("rule: %s (sup %.4f conf %.2f)", r, r.Support, r.Confidence)
		}
		t.Fatalf("got %d clustered rules, want 3-4", len(rs))
	}
	// The union of the clusters must coincide with the generating
	// regions geometrically: false-positive and false-negative area
	// fractions over the attribute domain must both be small.
	tr, err := synth.GroundTruth(2)
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.Regions
	fp, fn, err := verify.RegionErrors(rs, truth,
		synth.AgeMin, synth.AgeMax, synth.SalaryMin, synth.SalaryMax, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fp > 0.04 || fn > 0.06 {
		for _, r := range rs {
			t.Logf("rule: %s", r)
		}
		t.Errorf("geometric error too high: fp=%.3f fn=%.3f of the domain", fp, fn)
	}
}

func TestRunOptimizerConverges(t *testing.T) {
	sys := f2System(t, 20_000, 0.10, Config{
		NumBins: 30,
		Walk:    walkBudget(),
	})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) < 2 || len(res.Rules) > 6 {
		for _, r := range res.Rules {
			t.Logf("rule: %s", r)
		}
		t.Errorf("optimizer found %d rules, expected ~3", len(res.Rules))
	}
	if res.Errors.Rate() > 0.16 {
		t.Errorf("error rate %.2f%% too high", 100*res.Errors.Rate())
	}
	if res.Evaluations == 0 || len(res.Trace) == 0 {
		t.Error("missing search trace")
	}
	if res.MinSupport <= 0 {
		t.Errorf("MinSupport = %v", res.MinSupport)
	}
}

// walkBudget keeps optimizer probes cheap in tests while leaving enough
// confidence resolution to find the good region of the search space.
func walkBudget() optimizer.ThresholdWalk {
	return optimizer.ThresholdWalk{MaxSupportLevels: 10, MaxConfLevels: 8, MaxEvals: 120}
}

func TestSegmentAllCoversBothGroups(t *testing.T) {
	sys := f2System(t, 15_000, 0, Config{NumBins: 20, Walk: walkBudget()})
	results, err := sys.SegmentAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results for %d groups, want 2", len(results))
	}
	a := results[synth.GroupA]
	if a == nil || len(a.Rules) == 0 {
		t.Error("no segmentation for Group A")
	}
	other := results[synth.GroupOther]
	if other == nil {
		t.Error("missing result for Group other")
	}
}

func TestGridAccessors(t *testing.T) {
	sys := f2System(t, 5_000, 0, Config{NumBins: 20})
	bm, err := sys.Grid(synth.GroupA, 0.0001, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Rows() != 20 || bm.Cols() != 20 {
		t.Errorf("grid dims = %d×%d", bm.Rows(), bm.Cols())
	}
	if !bm.Any() {
		t.Error("grid empty at low thresholds")
	}
	if _, err := sys.Grid("bogus", 0.1, 0.1); err == nil {
		t.Error("unknown criterion label should error")
	}
	if sys.Counts() == nil || sys.Sample() == nil {
		t.Error("accessors returned nil")
	}
	xb, yb := sys.Binners()
	if xb.NumBins() != 20 || yb.NumBins() != 20 {
		t.Error("binner accessor wrong")
	}
}

func TestSmoothingModes(t *testing.T) {
	for _, mode := range []SmoothingMode{SmoothOff, SmoothBinary, SmoothWeighted, SmoothMorphological} {
		sys := f2System(t, 10_000, 0.10, Config{NumBins: 25, Smoothing: mode})
		rs, err := sys.MineAt(0.0001, 0.39)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(rs) == 0 {
			t.Errorf("mode %v: no rules", mode)
		}
	}
}

func TestBinStrategies(t *testing.T) {
	for _, strat := range []BinStrategy{BinEquiWidth, BinEquiDepth, BinHomogeneity, BinSupervised} {
		sys := f2System(t, 10_000, 0, Config{NumBins: 20, BinStrategy: strat})
		rs, err := sys.MineAt(0.0001, 0.39)
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		if len(rs) == 0 {
			t.Errorf("strategy %v: no rules", strat)
		}
	}
}

func TestFixedSearch(t *testing.T) {
	sys := f2System(t, 10_000, 0, Config{
		NumBins:            25,
		Search:             SearchFixed,
		FixedMinSupport:    0.0001,
		FixedMinConfidence: 0.39,
	})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupport != 0.0001 || res.MinConfidence != 0.39 {
		t.Errorf("fixed thresholds not honored: %v, %v", res.MinSupport, res.MinConfidence)
	}
	if res.Evaluations != 1 {
		t.Errorf("Evaluations = %d", res.Evaluations)
	}
}

func TestExplicitRangesSkipFitDependence(t *testing.T) {
	xr := [2]float64{synth.AgeMin, synth.AgeMax}
	yr := [2]float64{synth.SalaryMin, synth.SalaryMax}
	sys := f2System(t, 10_000, 0, Config{NumBins: 25, XRange: &xr, YRange: &yr})
	rs, err := sys.MineAt(0.0001, 0.39)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("no rules with explicit ranges")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Result {
		sys := f2System(t, 8_000, 0.1, Config{NumBins: 20, Walk: walkBudget()})
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.MinSupport != b.MinSupport || a.MinConfidence != b.MinConfidence || len(a.Rules) != len(b.Rules) {
		t.Errorf("non-deterministic results: %+v vs %+v", a, b)
	}
}

func TestCategoricalLHSReordered(t *testing.T) {
	// elevel (categorical, 5 values) × salary: the pipeline must accept
	// a categorical LHS attribute and still produce rules. Function 3
	// ties group to (age, elevel); use elevel × age.
	gen := synthSource(t, synth.Config{Function: 3, N: 20_000, Seed: 7, FracA: 0.5})
	sys, err := New(gen, Config{
		XAttr: synth.AttrELevel, YAttr: synth.AttrAge,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.MineAt(0.0005, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("categorical LHS produced no rules")
	}
	xb, _ := sys.Binners()
	if xb.NumBins() != 5 {
		t.Errorf("elevel bins = %d, want 5 (one per category)", xb.NumBins())
	}
}

func TestRunValueUnknownLabel(t *testing.T) {
	sys := f2System(t, 1_000, 0, Config{NumBins: 10})
	if _, err := sys.RunValue("nonexistent"); err == nil {
		t.Error("unknown label should error")
	}
}

func TestEmptySourceRejected(t *testing.T) {
	schema := synth.NewSchema()
	empty := dataset.NewTable(schema)
	_, err := New(empty, Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
	})
	if err == nil {
		t.Error("empty source should be rejected")
	}
}

func TestSelectAttributePair(t *testing.T) {
	// Function 1 is determined purely by age, so age must rank first.
	// (On Function 2 the marginal distribution of group given age alone
	// is flat by construction, so age carries almost no univariate gain
	// there — salary and its correlate commission dominate instead.)
	gen := synthSource(t, synth.Config{Function: 1, N: 10_000, Seed: 3})
	tb, err := dataset.Materialize(gen)
	if err != nil {
		t.Fatal(err)
	}
	x, _, scores, err := SelectAttributePair(tb, synth.AttrGroup, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x != synth.AttrAge {
		t.Errorf("top attribute = %s, want age. scores: %v", x, scores)
	}
	if len(scores) == 0 || scores[0].Gain < scores[len(scores)-1].Gain {
		t.Error("scores not sorted descending")
	}
	// On Function 2, salary must rank first.
	gen2 := synthSource(t, synth.Config{Function: 2, N: 10_000, Seed: 3, FracA: 0.4})
	tb2, _ := dataset.Materialize(gen2)
	x2, _, scores2, err := SelectAttributePair(tb2, synth.AttrGroup, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x2 != synth.AttrSalary {
		t.Errorf("top F2 attribute = %s, want salary. scores: %v", x2, scores2)
	}
}

func TestSelectAttributePairValidation(t *testing.T) {
	gen := synthSource(t, synth.Config{Function: 2, N: 100, Seed: 3})
	tb, _ := dataset.Materialize(gen)
	if _, _, _, err := SelectAttributePair(tb, synth.AttrGroup, 1); err == nil {
		t.Error("bins < 2 should error")
	}
	if _, _, _, err := SelectAttributePair(tb, "nope", 10); err == nil {
		t.Error("unknown criterion should error")
	}
	if _, _, _, err := SelectAttributePair(tb, synth.AttrSalary, 10); err == nil {
		t.Error("quantitative criterion should error")
	}
}

func TestInterestLift(t *testing.T) {
	sys := f2System(t, 10_000, 0, Config{NumBins: 25, InterestLift: 1.5})
	// With lift 1.5 and prior 0.4, the effective confidence floor is
	// 0.6 even when the caller asks for 0.
	lifted, err := sys.MineAt(0.0001, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lifted {
		if r.Confidence < 0.6 {
			t.Errorf("rule confidence %.2f below lift bar 0.6: %s", r.Confidence, r)
		}
	}
	// The lift bar admits fewer or equal grid cells than no bar (the
	// cluster count can go either way: fewer cells may fragment into
	// more rectangles).
	liftedGrid, err := sys.Grid(synth.GroupA, 0.0001, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain := f2System(t, 10_000, 0, Config{NumBins: 25})
	plainGrid, err := plain.Grid(synth.GroupA, 0.0001, 0)
	if err != nil {
		t.Fatal(err)
	}
	if liftedGrid.PopCount() > plainGrid.PopCount() {
		t.Errorf("lift bar admitted more cells (%d) than no bar (%d)",
			liftedGrid.PopCount(), plainGrid.PopCount())
	}
	// Negative lift is rejected.
	gen := synthSource(t, synth.Config{Function: 2, N: 100, Seed: 1})
	if _, err := New(gen, Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		InterestLift: -1,
	}); err == nil {
		t.Error("negative lift should be rejected")
	}
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		BinEquiWidth.String():        "equi-width",
		BinEquiDepth.String():        "equi-depth",
		BinHomogeneity.String():      "homogeneity",
		BinSupervised.String():       "supervised",
		SmoothBinary.String():        "binary",
		SmoothOff.String():           "off",
		SmoothWeighted.String():      "support-weighted",
		SmoothMorphological.String(): "morphological",
		SearchWalk.String():          "threshold-walk",
		SearchAnneal.String():        "simulated-annealing",
		SearchFactorial.String():     "factorial-design",
		SearchFixed.String():         "fixed",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if BinStrategy(99).String() == "" || SmoothingMode(99).String() == "" || SearchStrategy(99).String() == "" {
		t.Error("unknown enum values should render non-empty")
	}
}

// TestEnumParse: each strategy parses from the name flags and job specs
// give it, the empty name is the default, and an unknown name is an
// error that lists the names.
func TestEnumParse(t *testing.T) {
	parse := func(p func(string) (int, error), name string) int {
		t.Helper()
		v, err := p(name)
		if err != nil {
			t.Fatalf("parsing %q: %v", name, err)
		}
		return v
	}
	bin := func(s string) (int, error) { v, err := ParseBinStrategy(s); return int(v), err }
	smooth := func(s string) (int, error) { v, err := ParseSmoothingMode(s); return int(v), err }
	search := func(s string) (int, error) { v, err := ParseSearchStrategy(s); return int(v), err }
	for _, c := range []struct {
		p    func(string) (int, error)
		name string
		want int
	}{
		{bin, "", int(BinEquiWidth)}, {bin, "equi-width", int(BinEquiWidth)},
		{bin, "equi-depth", int(BinEquiDepth)}, {bin, "homogeneity", int(BinHomogeneity)},
		{bin, "supervised", int(BinSupervised)},
		{smooth, "", int(SmoothBinary)}, {smooth, "binary", int(SmoothBinary)},
		{smooth, "off", int(SmoothOff)}, {smooth, "weighted", int(SmoothWeighted)},
		{smooth, "morphological", int(SmoothMorphological)},
		{search, "", int(SearchWalk)}, {search, "walk", int(SearchWalk)},
		{search, "anneal", int(SearchAnneal)}, {search, "factorial", int(SearchFactorial)},
		{search, "fixed", int(SearchFixed)},
	} {
		if got := parse(c.p, c.name); got != c.want {
			t.Errorf("parsing %q gave %d, want %d", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		p          func(string) (int, error)
		name, want string
	}{
		{bin, "threshold-walk", `unknown binning "threshold-walk" (want equi-width, equi-depth, homogeneity or supervised)`},
		{smooth, "support-weighted", `unknown smoothing "support-weighted" (want binary, off, weighted or morphological)`},
		{search, "threshold-walk", `unknown search "threshold-walk" (want walk, anneal, factorial or fixed)`},
	} {
		if _, err := c.p(c.name); err == nil || err.Error() != c.want {
			t.Errorf("parsing %q: %v, want %s", c.name, err, c.want)
		}
	}
}

func TestObjectiveAccessor(t *testing.T) {
	sys := f2System(t, 5_000, 0, Config{NumBins: 15})
	obj, err := sys.Objective(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	sups, err := obj.SupportLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(sups) == 0 {
		t.Error("no support levels")
	}
	confs, err := obj.ConfidenceLevels(sups[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(confs) == 0 {
		t.Error("no confidence levels")
	}
	cost, n, err := obj.Evaluate(sups[0], confs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 && cost != 0 {
		t.Errorf("inconsistent evaluation: cost=%v n=%d", cost, n)
	}
	if _, err := sys.Objective("bogus"); err == nil {
		t.Error("unknown label should error")
	}
}

func TestRunValueWithAnnealAndFactorial(t *testing.T) {
	for _, search := range []SearchStrategy{SearchAnneal, SearchFactorial} {
		sys := f2System(t, 10_000, 0, Config{
			NumBins:   20,
			Search:    search,
			Anneal:    optimizer.Anneal{Seed: 1, Iterations: 40},
			Factorial: optimizer.Factorial{Rounds: 6},
		})
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%v: %v", search, err)
		}
		if len(res.Rules) == 0 {
			t.Errorf("%v found no rules", search)
		}
		// Search quality differs by strategy (factorial probes box
		// corners and can settle for a coarser optimum on this
		// small-budget configuration); both must at least beat the
		// trivial segmentation.
		if res.Errors.Rate() > 0.38 {
			t.Errorf("%v error rate %.2f%%", search, 100*res.Errors.Rate())
		}
	}
}

func TestSegmentAllWithEmptyGroup(t *testing.T) {
	// Register a criterion label that never occurs; SegmentAll must
	// report an empty result for it, not fail.
	gen := synthSource(t, synth.Config{Function: 2, N: 5_000, Seed: 3, FracA: 0.4})
	gen.Schema().Attr(synth.AttrGroup).CategoryCode("phantom")
	sys, err := New(gen, Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup,
		NumBins:  15,
		Walk:     walkBudget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.SegmentAll()
	if err != nil {
		t.Fatal(err)
	}
	phantom := results["phantom"]
	if phantom == nil {
		t.Fatal("missing phantom result")
	}
	if len(phantom.Rules) != 0 {
		t.Errorf("phantom group has %d rules", len(phantom.Rules))
	}
	if len(results[synth.GroupA].Rules) == 0 {
		t.Error("real group lost its rules")
	}
}

func TestSelectAttributePairJointInternal(t *testing.T) {
	gen := synthSource(t, synth.Config{Function: 2, N: 8_000, Seed: 3, FracA: 0.4})
	tb, err := dataset.Materialize(gen)
	if err != nil {
		t.Fatal(err)
	}
	x, y, scores, err := SelectAttributePairJoint(tb, synth.AttrGroup, 8)
	if err != nil {
		t.Fatal(err)
	}
	pair := map[string]bool{x: true, y: true}
	if !pair[synth.AttrAge] || !pair[synth.AttrSalary] {
		t.Errorf("joint selection picked (%s, %s), want age+salary; scores %v", x, y, scores[:3])
	}
	if _, _, _, err := SelectAttributePairJoint(tb, synth.AttrGroup, 1); err == nil {
		t.Error("bins < 2 should error")
	}
	if _, _, _, err := SelectAttributePairJoint(tb, "nope", 8); err == nil {
		t.Error("unknown criterion should error")
	}
	if _, _, _, err := SelectAttributePairJoint(tb, synth.AttrSalary, 8); err == nil {
		t.Error("quantitative criterion should error")
	}
}
