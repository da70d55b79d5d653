package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"arcs/internal/cluster"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/engine"
	"arcs/internal/grid"
	"arcs/internal/synth"
)

func extSystem(t *testing.T, n int) *System {
	t.Helper()
	gen := synthSource(t, synth.Config{Function: 2, N: n, Seed: 1, FracA: 0.4})
	sys, err := New(gen, Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestExtendAddsData(t *testing.T) {
	sys := extSystem(t, 5_000)
	before := sys.Counts().N()

	// A fresh generator has a structurally identical schema (different
	// instance): Extend must remap category codes by label.
	more := synthSource(t, synth.Config{Function: 2, N: 3_000, Seed: 2, FracA: 0.4})
	if err := sys.Extend(more); err != nil {
		t.Fatal(err)
	}
	if got := sys.Counts().N(); got != before+3_000 {
		t.Errorf("N = %d, want %d", got, before+3_000)
	}
	rs, err := sys.MineAt(0.0001, 0.39)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("no rules after Extend")
	}
	// A full threshold search still works (threshold cache was invalidated).
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Error("Run found no rules after Extend")
	}
	if res.Errors.Rate() > 0.15 {
		t.Errorf("error rate after Extend = %.2f%%", 100*res.Errors.Rate())
	}
}

func TestExtendSampleStaysBounded(t *testing.T) {
	sys := extSystem(t, 5_000)
	capacity := sys.Sample().Len()
	more := synthSource(t, synth.Config{Function: 2, N: 10_000, Seed: 3, FracA: 0.4})
	if err := sys.Extend(more); err != nil {
		t.Fatal(err)
	}
	if sys.Sample().Len() > 5_000 {
		t.Errorf("sample grew to %d", sys.Sample().Len())
	}
	if sys.Sample().Len() < capacity {
		t.Errorf("sample shrank from %d to %d", capacity, sys.Sample().Len())
	}
}

func TestExtendRejectsIncompatibleSchema(t *testing.T) {
	sys := extSystem(t, 1_000)
	// Wrong width.
	narrow := dataset.NewTable(dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.Quantitative},
	))
	narrow.MustAppend(dataset.Tuple{1})
	if err := sys.Extend(narrow); err == nil {
		t.Error("narrow schema should be rejected")
	}
	// Same width, wrong attribute name.
	wrong := synth.NewSchema()
	tb := dataset.NewTable(wrong)
	// Build a schema with a renamed attribute by hand.
	renamed := dataset.NewSchema(
		dataset.Attribute{Name: "WRONG", Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrCommission, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrAge, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrELevel, Kind: dataset.Categorical},
		dataset.Attribute{Name: synth.AttrCar, Kind: dataset.Categorical},
		dataset.Attribute{Name: synth.AttrZipcode, Kind: dataset.Categorical},
		dataset.Attribute{Name: synth.AttrHValue, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrHYears, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrLoan, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrGroup, Kind: dataset.Categorical},
	)
	tb2 := dataset.NewTable(renamed)
	tb2.MustAppend(make(dataset.Tuple, renamed.Len()))
	if err := sys.Extend(tb2); err == nil {
		t.Error("renamed attribute should be rejected")
	}
	_ = tb
}

func TestExtendRejectsUnknownCriterionLabel(t *testing.T) {
	sys := extSystem(t, 1_000)
	// A structurally identical schema whose group dictionary holds an
	// extra label unknown to the system.
	schema := synth.NewSchema()
	schema.Attr(synth.AttrGroup).CategoryCode("mystery")
	tb := dataset.NewTable(schema)
	row := make(dataset.Tuple, schema.Len())
	code, _ := schema.Attr(synth.AttrGroup).LookupCategory("mystery")
	row[schema.MustIndex(synth.AttrGroup)] = float64(code)
	row[schema.MustIndex(synth.AttrAge)] = 30
	row[schema.MustIndex(synth.AttrSalary)] = 50_000
	tb.MustAppend(row)
	if err := sys.Extend(tb); err == nil {
		t.Error("unknown criterion label should be rejected")
	}
}

// TestExtendRejectionChangesNothing: a tuple Extend rejects leaves the
// System as it was, even when good tuples come before it. After a
// rejected extension of 500 good rows and one labelled "mystery", the
// counts, the sample and the probe cache are unchanged, and extending
// with the 500 good rows gives the counts and the sample of a twin
// System extended with those rows alone.
func TestExtendRejectionChangesNothing(t *testing.T) {
	schema := synth.NewSchema()
	group := schema.Attr(synth.AttrGroup)
	good := dataset.NewTable(schema)
	if err := dataset.ForEach(synthSource(t, synth.Config{Function: 2, N: 500, Seed: 2, FracA: 0.4}),
		func(tp dataset.Tuple) error { return good.Append(tp) }); err != nil {
		t.Fatal(err)
	}
	bad := dataset.NewTable(schema)
	for i := 0; i < good.Len(); i++ {
		bad.MustAppend(good.Row(i))
	}
	code, err := group.CategoryCode("mystery")
	if err != nil {
		t.Fatal(err)
	}
	mystery := append(dataset.Tuple(nil), good.Row(0)...)
	mystery[schema.MustIndex(synth.AttrGroup)] = float64(code)
	bad.MustAppend(mystery)

	state := func(sys *System) ([]byte, [][]float64) {
		t.Helper()
		var buf bytes.Buffer
		if err := counts.Snapshot(sys.Counts(), &buf); err != nil {
			t.Fatal(err)
		}
		sample := make([][]float64, sys.Sample().Len())
		for i := range sample {
			sample[i] = append([]float64(nil), sys.Sample().Row(i)...)
		}
		return buf.Bytes(), sample
	}

	sys := extSystem(t, 2_000)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	countsBefore, sampleBefore := state(sys)
	if err := sys.Extend(bad); err == nil {
		t.Fatal("an extension with an unknown label was accepted")
	}
	if n := sys.Counts().N(); n != 2_000 {
		t.Errorf("N = %d after a rejected extension, want 2000", n)
	}
	countsAfter, sampleAfter := state(sys)
	if !bytes.Equal(countsBefore, countsAfter) {
		t.Error("a rejected extension changed the counts")
	}
	if !reflect.DeepEqual(sampleBefore, sampleAfter) {
		t.Error("a rejected extension changed the sample")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Misses != 0 {
		t.Errorf("the run after a rejected extension missed %d probes; the System should not have changed", res.Cache.Misses)
	}

	if err := sys.Extend(good); err != nil {
		t.Fatal(err)
	}
	twin := extSystem(t, 2_000)
	if err := twin.Extend(good); err != nil {
		t.Fatal(err)
	}
	gotCounts, gotSample := state(sys)
	wantCounts, wantSample := state(twin)
	if !bytes.Equal(gotCounts, wantCounts) {
		t.Error("counts differ from a twin System extended with the good rows alone")
	}
	if !reflect.DeepEqual(gotSample, wantSample) {
		t.Error("sample differs from a twin System extended with the good rows alone")
	}
}

func TestExtendDeterministic(t *testing.T) {
	run := func() uint64 {
		sys := extSystem(t, 2_000)
		more := synthSource(t, synth.Config{Function: 2, N: 1_000, Seed: 9, FracA: 0.4})
		if err := sys.Extend(more); err != nil {
			t.Fatal(err)
		}
		return sys.Counts().N()
	}
	if run() != run() {
		t.Error("Extend is not deterministic")
	}
}

// TestInterestLiftAfterExtend: Extend refreshes the criterion totals
// behind the lift bar, which is then InterestLift × the value's count
// over both sources ÷ N.
func TestInterestLiftAfterExtend(t *testing.T) {
	first := synthSource(t, synth.Config{Function: 2, N: 2_000, Seed: 1, FracA: 0.4})
	more := synthSource(t, synth.Config{Function: 2, N: 3_000, Seed: 2, FracA: 0.8})
	sys, err := New(first, Config{
		XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
		CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
		NumBins: 20, InterestLift: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Extend(more); err != nil {
		t.Fatal(err)
	}
	groupA := 0
	for _, src := range []dataset.Source{first, more} {
		g := src.Schema().MustIndex(synth.AttrGroup)
		if err := dataset.ForEach(src, func(tu dataset.Tuple) error {
			if src.Schema().At(g).Category(int(tu[g])) == synth.GroupA {
				groupA++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := sys.segCode(synth.GroupA)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Counts().N()
	if n != 5_000 {
		t.Fatalf("N = %d, want 5000", n)
	}
	if got, want := sys.effectiveMinConf(seg, 0), 1.5*(float64(groupA)/float64(n)); got != want {
		t.Errorf("lift bar after Extend = %v, want 1.5 × %d/%d = %v", got, groupA, n, want)
	}
}

// TestExtendRefreshesIndex: probes read the per-criterion index, and
// Extend drops it, so on a dense and on a sparse System a grid, a mine
// and the walk's support levels after Extend read the extended counts.
// Each equals what GenAssociationRules, BitOp and cluster.FromRects
// derive from Counts(), or a fresh index's levels, though the index at
// the old counts was built before Extend.
func TestExtendRefreshesIndex(t *testing.T) {
	for _, backend := range []string{"dense", "sparse"} {
		t.Run(backend, func(t *testing.T) {
			sys, err := New(synthSource(t, synth.Config{Function: 2, N: 5_000, Seed: 1, FracA: 0.4}), Config{
				XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
				CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
				NumBins: 20, Smoothing: SmoothOff, PruneFraction: -1, CountsBackend: backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			seg, err := sys.segCode(synth.GroupA)
			if err != nil {
				t.Fatal(err)
			}
			const sup, conf = 0.002, 0.5
			before, err := sys.Grid(synth.GroupA, sup, conf)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Extend(synthSource(t, synth.Config{Function: 2, N: 5_000, Seed: 2, FracA: 0.4})); err != nil {
				t.Fatal(err)
			}

			cellRules, err := engine.GenAssociationRules(sys.Counts(), seg, sup, conf)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := grid.New(sys.Counts().NY(), sys.Counts().NX())
			for _, r := range cellRules {
				want.Set(r.Y, r.X)
			}
			if reflect.DeepEqual(before, want) {
				t.Fatal("the extension leaves the rule grid as it was, so the test shows nothing")
			}
			got, err := sys.Grid(synth.GroupA, sup, conf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Grid after Extend\n%s\nwant the extended counts' rule cells\n%s", got, want)
			}

			xb, yb := sys.Binners()
			clustered, err := cluster.FromRects(bitopCluster(want, 1, nil), sys.Counts(), seg, xb, yb, cluster.Meta{
				XAttr: synth.AttrAge, YAttr: synth.AttrSalary,
				CritAttr: synth.AttrGroup, CritValue: synth.GroupA,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantRules := clustered[:0]
			for _, r := range clustered {
				if r.Confidence >= conf {
					wantRules = append(wantRules, r)
				}
			}
			if len(wantRules) == 0 {
				t.Fatal("the extended counts mine no rules, so the test shows nothing")
			}
			gotRules, err := sys.MineAt(sup, conf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRules, wantRules) {
				t.Errorf("MineAt after Extend = %v\nwant %v", gotRules, wantRules)
			}

			levels, err := (&segObjective{sys: sys, seg: seg}).SupportLevels()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := engine.NewThresholds(sys.Counts(), seg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(levels, fresh.Supports()) {
				t.Errorf("support levels after Extend = %v\nwant %v", levels, fresh.Supports())
			}
		})
	}
}
