package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/obs"
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

// noPassSource has a schema and fails every read, so a System built on
// it fails with errDataPass once a data pass starts.
type noPassSource struct{ schema *dataset.Schema }

var errDataPass = errors.New("data pass started")

func (s noPassSource) Schema() *dataset.Schema    { return s.schema }
func (noPassSource) Next() (dataset.Tuple, error) { return nil, errDataPass }
func (noPassSource) Reset() error                 { return errDataPass }

// TestConfigRejectsUnknownEnumValues: a strategy value outside its name
// table is rejected before any data pass, with an error that names it,
// and a value in its table gets as far as the data. SmoothingMode(3)
// and SearchStrategy(3) were values in earlier releases.
func TestConfigRejectsUnknownEnumValues(t *testing.T) {
	src := noPassSource{synthSource(t, synth.Config{Function: 2, N: 100, Seed: 1}).Schema()}
	cfgFor := func(set func(*Config)) Config {
		cfg := Config{XAttr: synth.AttrAge, YAttr: synth.AttrSalary, CritAttr: synth.AttrGroup}
		set(&cfg)
		return cfg
	}
	for _, c := range []struct {
		want string
		set  func(*Config)
	}{
		{"BinStrategy(99)", func(c *Config) { c.BinStrategy = 99 }},
		{"BinStrategy(-1)", func(c *Config) { c.BinStrategy = -1 }},
		{"SmoothingMode(99)", func(c *Config) { c.Smoothing = 99 }},
		{"SmoothingMode(3)", func(c *Config) { c.Smoothing = 3 }},
		{"SearchStrategy(99)", func(c *Config) { c.Search = 99 }},
		{"SearchStrategy(3)", func(c *Config) { c.Search = 3 }},
	} {
		_, err := New(src, cfgFor(c.set))
		if err == nil || errors.Is(err, errDataPass) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New err = %v, want an error naming it before any data pass", c.want, err)
		}
	}
	for _, set := range []func(*Config){
		func(c *Config) { c.BinStrategy = BinSupervised },
		func(c *Config) { c.Smoothing = SmoothWeighted },
		func(c *Config) { c.Search = SearchFixed },
	} {
		cfg := cfgFor(set)
		if _, err := New(src, cfg); !errors.Is(err, errDataPass) {
			t.Errorf("%v, %v, %v: New err = %v, want the data pass to start", cfg.BinStrategy, cfg.Smoothing, cfg.Search, err)
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

// TestWalkCappedAtOneLevel runs the walk with each of its level caps at
// 1: under MaxSupportLevels 1 every probe sits at the lowest support
// level, and under MaxConfLevels 1 each support level the walk visits is
// probed once, at its lowest confidence.
func TestWalkCappedAtOneLevel(t *testing.T) {
	for _, tc := range []struct {
		name string
		walk optimizer.ThresholdWalk
	}{
		{"MaxSupportLevels", optimizer.ThresholdWalk{MaxSupportLevels: 1}},
		{"MaxConfLevels", optimizer.ThresholdWalk{MaxConfLevels: 1}},
	} {
		sys := f2System(t, 8_000, 0, Config{NumBins: 20, Walk: tc.walk})
		res, err := sys.RunValue(synth.GroupA)
		if err != nil {
			t.Fatalf("%s 1: %v", tc.name, err)
		}
		obj, err := sys.objective(synth.GroupA)
		if err != nil {
			t.Fatal(err)
		}
		sups, err := obj.SupportLevels()
		if err != nil || len(sups) < 2 {
			t.Fatalf("%d support levels (%v), want several", len(sups), err)
		}
		if len(res.Trace) == 0 {
			t.Fatalf("%s 1: empty trace", tc.name)
		}
		probed := map[float64]bool{}
		for i, step := range res.Trace {
			if tc.walk.MaxSupportLevels == 1 {
				if step.Support != sups[0] {
					t.Errorf("%s 1: step %d at support %g, want the lowest, %g", tc.name, i, step.Support, sups[0])
				}
				continue
			}
			confs, err := obj.ConfidenceLevels(step.Support)
			if err != nil {
				t.Fatal(err)
			}
			if probed[step.Support] || step.Confidence != confs[0] {
				t.Errorf("%s 1: step %d at (%g, %g), want one probe a support level, at its lowest confidence %g",
					tc.name, i, step.Support, step.Confidence, confs[0])
			}
			probed[step.Support] = true
		}
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
	for _, mode := range []SmoothingMode{SmoothOff, SmoothBinary, SmoothWeighted} {
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

// TestWeightedZeroSupportMinesOccupiedCells: under weighted smoothing a
// minimum support of 0 mines exactly what the smallest positive bar
// mines. Cells with no support anywhere near them stay out of the grid
// instead of joining one rule over the whole domain.
func TestWeightedZeroSupportMinesOccupiedCells(t *testing.T) {
	sys := f2System(t, 20_000, 0, Config{Smoothing: SmoothWeighted})
	zero, err := sys.MineAt(0, 0.39)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := sys.MineAt(1e-12, 0.39)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, tiny) {
		t.Errorf("minimum support 0 mined %d rules:\n%v\nwant the %d mined at 1e-12:\n%v",
			len(zero), zero, len(tiny), tiny)
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

// TestDeterministicAcrossRuns: two Systems built from identically
// seeded sources return the same Result (thresholds, probe trace, rules,
// cost, error counts, cache and provenance counts) apart from the
// wall-clock phase timings.
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
	if len(a.Trace) == 0 || len(a.Rules) == 0 {
		t.Fatalf("search left nothing to compare: %d probes, %d rules", len(a.Trace), len(a.Rules))
	}
	// Phases are wall-clock timings; every other field must match.
	a.Phases, b.Phases = nil, nil
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("Result.%s differs between two Systems:\n%+v\n%+v",
				av.Type().Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
}

// TestCategoricalRulesCoverTheirBins: a categorical LHS axis is binned
// in category-code order, so each mined rule's value range holds
// exactly the category codes of the bins its cluster spans.
func TestCategoricalRulesCoverTheirBins(t *testing.T) {
	gen := synthSource(t, synth.Config{Function: 2, N: 5_000, Seed: 7, Perturbation: 0.05, FracA: 0.4})
	sys, err := New(gen, Config{
		XAttr: synth.AttrCar, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("categorical LHS produced no rules")
	}
	xb, _ := sys.Binners()
	if xb.NumBins() != synth.NumCars {
		t.Fatalf("car bins = %d, want %d (one per category)", xb.NumBins(), synth.NumCars)
	}
	for _, r := range res.Rules {
		for c := 0; c < xb.NumBins(); c++ {
			v := float64(c)
			inRange := r.XLo <= v && v < r.XHi
			bin := xb.Bin(v)
			if inBins := r.XLoBin <= bin && bin <= r.XHiBin; inRange != inBins {
				t.Errorf("rule %v over car bins %d..%d: code %d (bin %d) in range %v, in bins %v",
					r, r.XLoBin, r.XHiBin, c, bin, inRange, inBins)
				break
			}
		}
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

// TestInterestLiftSelectsCells: on a 2×2 grid, a cell is admitted only
// when its confidence reaches lift × prior, and a bar above 1 admits no
// cell in every smoothing mode. That is no error: the rule generator
// never sees the bar.
func TestInterestLiftSelectsCells(t *testing.T) {
	// a's prior is 0.5. Lift 1.5 puts the bar at 0.75: cell (0,0) at
	// confidence 1 is admitted, cell (1,1) at 1/3 is not.
	bm, err := liftSystem(t, "a", 1.5, SmoothOff).Grid("a", 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.PopCount() != 1 || !bm.Get(0, 0) {
		t.Fatalf("lift 1.5 grid:\n%v\nwant only cell (0,0)", bm)
	}
	// Lift 0.5 puts the bar at 0.25 and admits both occupied cells.
	bm, err = liftSystem(t, "a", 0.5, SmoothOff).Grid("a", 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.PopCount() != 2 || !bm.Get(0, 0) || !bm.Get(1, 1) {
		t.Fatalf("lift 0.5 grid:\n%v\nwant cells (0,0) and (1,1)", bm)
	}
	// Lift 3 puts the bar at 1.5, which no cell can reach.
	for _, mode := range []SmoothingMode{SmoothOff, SmoothBinary, SmoothWeighted} {
		sys := liftSystem(t, "a", 3, mode)
		rs, err := sys.MineAt(0.01, 0)
		if err != nil || len(rs) != 0 {
			t.Errorf("%v, lift 3: rules %v, err %v; want none and no error", mode, rs, err)
		}
		bm, err := sys.Grid("a", 0.01, 0)
		if err != nil || bm.PopCount() != 0 {
			t.Errorf("%v, lift 3: grid err %v, want an empty grid", mode, err)
		}
	}
}

// TestInterestLiftExactlyAtBar: the comparison is inclusive. Lift 2
// puts a's bar at 2 × 0.5 = 1, exactly cell (0,0)'s confidence: that
// cell is admitted and cell (1,1) is not. Nudging the bar above 1
// admits nothing, in every smoothing mode and without error.
func TestInterestLiftExactlyAtBar(t *testing.T) {
	rs, err := liftSystem(t, "a", 2, SmoothOff).MineAt(0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Confidence != 1 {
		t.Fatalf("bar at cell confidence: rules %v, want the one cell at confidence 1", rs)
	}
	for _, mode := range []SmoothingMode{SmoothOff, SmoothBinary, SmoothWeighted} {
		sys := liftSystem(t, "a", 2.0000001, mode)
		rs, err := sys.MineAt(0.01, 0)
		if err != nil || len(rs) != 0 {
			t.Errorf("%v, lift just above the bar: rules %v, err %v; want none and no error", mode, rs, err)
		}
		bm, err := sys.Grid("a", 0.01, 0)
		if err != nil || bm.PopCount() != 0 {
			t.Errorf("%v, lift just above the bar: grid err %v, want an empty grid", mode, err)
		}
	}
}

// TestInterestLiftZeroPrior: a value with no tuples has prior 0, so its
// bar is 0, but no cell is occupied for it: the result is empty, not an
// error and not a division blow-up. Its sibling is unaffected.
func TestInterestLiftZeroPrior(t *testing.T) {
	rs, err := liftSystem(t, "z", 1.5, SmoothOff).MineAt(0.01, 0)
	if err != nil || len(rs) != 0 {
		t.Errorf("zero-prior value: rules %v, err %v; want none and no error", rs, err)
	}
	// b's prior is 0.5 and its one cell (1,1) has confidence 2/3, so
	// lift 1 admits it.
	bm, err := liftSystem(t, "b", 1, SmoothOff).Grid("b", 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.PopCount() != 1 || !bm.Get(1, 1) {
		t.Errorf("b under lift 1:\n%v\nwant only cell (1,1)", bm)
	}
}

// liftSystem builds a System over a 2×2 grid. Cell (0,0) holds 5 tuples
// of "a"; cell (1,1) holds 5 of "a" and 10 of "b"; label "z" has no
// tuples. So a's prior is exactly 0.5, cell (0,0) has confidence 1 and
// cell (1,1) confidence 1/3.
func liftSystem(t *testing.T, crit string, lift float64, smoothing SmoothingMode) *System {
	t.Helper()
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	for _, label := range []string{"a", "b", "z"} {
		if _, err := schema.At(2).CategoryCode(label); err != nil {
			t.Fatal(err)
		}
	}
	tab := dataset.NewTable(schema)
	add := func(x, y, g float64, n int) {
		for i := 0; i < n; i++ {
			tab.MustAppend(dataset.Tuple{x, y, g})
		}
	}
	add(0.5, 0.5, 0, 5)
	add(1.5, 1.5, 0, 5)
	add(1.5, 1.5, 1, 10)
	sys, err := New(tab, Config{
		XAttr: "x", YAttr: "y", CritAttr: "g", CritValue: crit,
		NumBins:   2,
		Smoothing: smoothing, InterestLift: lift,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		BinEquiWidth.String():   "equi-width",
		BinEquiDepth.String():   "equi-depth",
		BinHomogeneity.String(): "homogeneity",
		BinSupervised.String():  "supervised",
		SmoothBinary.String():   "binary",
		SmoothOff.String():      "off",
		SmoothWeighted.String(): "support-weighted",
		SearchWalk.String():     "threshold-walk",
		SearchAnneal.String():   "simulated-annealing",
		SearchFixed.String():    "fixed",
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
		{search, "", int(SearchWalk)}, {search, "walk", int(SearchWalk)},
		{search, "anneal", int(SearchAnneal)}, {search, "fixed", int(SearchFixed)},
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
		{smooth, "support-weighted", `unknown smoothing "support-weighted" (want binary, off or weighted)`},
		{search, "threshold-walk", `unknown search "threshold-walk" (want walk, anneal or fixed)`},
	} {
		if _, err := c.p(c.name); err == nil || err.Error() != c.want {
			t.Errorf("parsing %q: %v, want %s", c.name, err, c.want)
		}
	}
}

// objective adapts the system to one criterion code so a test can probe
// it as the optimizer strategies do. Objectives for different codes are
// independent and safe to drive concurrently: every probe only reads the
// BinArray and the verification sample.
func (s *System) objective(label string) (optimizer.Objective, error) {
	seg, err := s.segCode(label)
	if err != nil {
		return nil, err
	}
	return &segObjective{sys: s, seg: seg}, nil
}

func TestObjectiveAccessor(t *testing.T) {
	sys := f2System(t, 5_000, 0, Config{NumBins: 15})
	obj, err := sys.objective(synth.GroupA)
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
	r := obj.Evaluate(optimizer.Probe{Support: sups[0], Confidence: confs[0]})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.NumRules == 0 && r.Cost != 0 {
		t.Errorf("inconsistent evaluation: cost=%v n=%d", r.Cost, r.NumRules)
	}
	if _, err := sys.objective("bogus"); err == nil {
		t.Error("unknown label should error")
	}
}

func TestRunValueWithAnneal(t *testing.T) {
	sys := f2System(t, 10_000, 0, Config{
		NumBins: 20,
		Search:  SearchAnneal,
		Anneal:  optimizer.Anneal{Seed: 1, Iterations: 40},
	})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Error("annealing found no rules")
	}
	// A small-budget chain must at least beat the trivial segmentation.
	if res.Errors.Rate() > 0.38 {
		t.Errorf("error rate %.2f%%", 100*res.Errors.Rate())
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

// TestProbeZeroAllocPerCandidate guards a whole threshold probe on a
// 200×200 grid: setting the rule grid, smoothing it, running BitOp,
// converting its rectangles, scoring them on the sample's draws and
// costing them allocate a small constant number of bitmaps' worth of
// bytes, under the same bound at a sparse and at a dense threshold,
// however many rules the grid holds and candidates BitOp sweeps past.
func TestProbeZeroAllocPerCandidate(t *testing.T) {
	sys := f2System(t, 100_000, 0.05, Config{NumBins: 200})
	seg, err := sys.segCode(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	th, err := sys.thresholdsFor(seg)
	if err != nil {
		t.Fatal(err)
	}
	sups := th.Supports()
	const bitmapBytes = 200 * 4 * 8 // 200 rows of four 64-bit words
	verified := false
	for _, mode := range []SmoothingMode{SmoothOff, SmoothBinary} {
		sys.cfg.Smoothing = mode
		for _, tc := range []struct {
			name      string
			sup, conf float64
		}{
			{"sparse", sups[len(sups)/4], 0.5},
			{"dense", 0, 0},
		} {
			var rules int
			probe := func() {
				if _, rules, err = sys.evaluateProbe(obs.Span{}, seg, tc.sup, tc.conf); err != nil {
					t.Fatal(err)
				}
			}
			probe()
			verified = verified || rules > 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 20
			for i := 0; i < runs; i++ {
				probe()
			}
			runtime.ReadMemStats(&after)
			perProbe := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%s, %s (support %g, confidence %g, %d rules): %.0f bytes per probe", mode, tc.name, tc.sup, tc.conf, rules, perProbe)
			if perProbe > 8*bitmapBytes {
				t.Errorf("%s, %s probe allocates %.0f bytes, want at most 8 bitmaps' worth (%d)",
					mode, tc.name, perProbe, 8*bitmapBytes)
			}
		}
	}
	if !verified {
		t.Error("no probe mined rules, so none reached the verify step")
	}
}
