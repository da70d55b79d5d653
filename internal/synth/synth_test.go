package synth

import (
	"io"
	"math"
	"testing"

	"arcs/internal/dataset"
)

// source builds the stream for cfg and returns it as a dataset source.
func source(t *testing.T, cfg Config) dataset.Source {
	t.Helper()
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.Source()
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Function: 0, N: 10},
		{Function: 11, N: 10},
		{Function: 2, N: -1},
		{Function: 2, N: 10, Perturbation: -0.1},
		{Function: 2, N: 10, Perturbation: 1.5},
		{Function: 2, N: 10, OutlierFraction: -0.1},
		{Function: 2, N: 10, OutlierFraction: 1.1},
		{Function: 2, N: 10, FracA: -0.2},
		{Function: 2, N: 10, FracA: 1},
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	if _, err := NewStream(Config{Function: 2, N: 10}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSchemaStableCodes(t *testing.T) {
	s := NewSchema()
	g := s.Attr(AttrGroup)
	if code, ok := g.LookupCategory(GroupA); !ok || code != 0 {
		t.Errorf("GroupA code = %d, %v; want 0", code, ok)
	}
	if code, ok := g.LookupCategory(GroupOther); !ok || code != 1 {
		t.Errorf("GroupOther code = %d, %v; want 1", code, ok)
	}
	if s.Attr(AttrZipcode).NumCategories() != NumZipcodes {
		t.Errorf("zipcode categories = %d", s.Attr(AttrZipcode).NumCategories())
	}
}

// TestGeneratorDeterministicReplay: one source, materialized twice,
// replays identical rows, because each pass resets it.
func TestGeneratorDeterministicReplay(t *testing.T) {
	g := source(t, Config{Function: 2, N: 100, Seed: 42, Perturbation: 0.05, OutlierFraction: 0.1, FracA: 0.4})
	first, err := dataset.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	second, err := dataset.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 100 || second.Len() != 100 {
		t.Fatalf("lengths %d, %d", first.Len(), second.Len())
	}
	for i := 0; i < first.Len(); i++ {
		a, b := first.Row(i), second.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d col %d differs after Reset: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestGeneratorEOF: the source yields exactly N tuples, then io.EOF.
func TestGeneratorEOF(t *testing.T) {
	g := source(t, Config{Function: 1, N: 2, Seed: 1})
	for i := 0; i < 2; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
	}
	if _, err := g.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestDomains(t *testing.T) {
	g := source(t, Config{Function: 2, N: 5000, Seed: 7, Perturbation: 0.05, OutlierFraction: 0.1, FracA: 0.4})
	err := dataset.ForEach(g, func(tp dataset.Tuple) error {
		if tp[ColSalary] < SalaryMin || tp[ColSalary] > SalaryMax {
			t.Errorf("salary %v out of domain", tp[ColSalary])
		}
		if tp[ColAge] < AgeMin || tp[ColAge] > AgeMax {
			t.Errorf("age %v out of domain", tp[ColAge])
		}
		if tp[ColCommission] != 0 && (tp[ColCommission] < CommissionMin || tp[ColCommission] > CommissionMax) {
			t.Errorf("commission %v out of domain", tp[ColCommission])
		}
		if e := int(tp[ColELevel]); e < 0 || e >= NumELevels {
			t.Errorf("elevel %d out of domain", e)
		}
		if z := int(tp[ColZipcode]); z < 0 || z >= NumZipcodes {
			t.Errorf("zipcode %d out of domain", z)
		}
		if grp := int(tp[ColGroup]); grp != 0 && grp != 1 {
			t.Errorf("group code %d out of domain", grp)
		}
		if tp[ColLoan] < LoanMin || tp[ColLoan] > LoanMax {
			t.Errorf("loan %v out of domain", tp[ColLoan])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFractionControl checks rejection sampling hits the configured
// Group A fraction within sampling noise.
func TestFractionControl(t *testing.T) {
	g := source(t, Config{Function: 2, N: 20000, Seed: 3, FracA: 0.4})
	countA := 0
	total := 0
	dataset.ForEach(g, func(tp dataset.Tuple) error {
		if int(tp[ColGroup]) == 0 {
			countA++
		}
		total++
		return nil
	})
	frac := float64(countA) / float64(total)
	if math.Abs(frac-0.4) > 0.02 {
		t.Errorf("fraction of Group A = %v, want ~0.40", frac)
	}
}

func TestLabelsMatchFunctionWithoutNoise(t *testing.T) {
	// With no perturbation and no outliers, every label must agree with
	// the generating function exactly.
	g := source(t, Config{Function: 2, N: 5000, Seed: 11, FracA: 0.4})
	err := dataset.ForEach(g, func(tp dataset.Tuple) error {
		want := IsGroupA(2, tp)
		got := int(tp[ColGroup]) == 0
		if want != got {
			t.Fatalf("label %v disagrees with function %v for tuple %v", got, want, tp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOutliersProduceRuleViolations(t *testing.T) {
	// With 100% outliers every tuple is drawn uniformly, so a sizable
	// fraction must violate the generating function.
	g := source(t, Config{Function: 2, N: 5000, Seed: 13, OutlierFraction: 1, FracA: 0.4})
	violations := 0
	total := 0
	dataset.ForEach(g, func(tp dataset.Tuple) error {
		if IsGroupA(2, tp) != (int(tp[ColGroup]) == 0) {
			violations++
		}
		total++
		return nil
	})
	if violations < total/4 {
		t.Errorf("only %d/%d outliers violate the rules; generator is not producing outliers", violations, total)
	}
}

func TestAllFunctionsProduceBothGroups(t *testing.T) {
	for fn := 1; fn <= 10; fn++ {
		g := source(t, Config{Function: fn, N: 2000, Seed: int64(fn)})
		seen := map[int]int{}
		dataset.ForEach(g, func(tp dataset.Tuple) error {
			seen[int(tp[ColGroup])]++
			return nil
		})
		if seen[0] == 0 || seen[1] == 0 {
			t.Errorf("function %d: group counts %v; both groups should appear", fn, seen)
		}
	}
}

func TestFunction2MatchesRegions(t *testing.T) {
	tr, err := GroundTruth(2)
	if err != nil {
		t.Fatal(err)
	}
	regions := tr.Regions
	probe := func(age, salary float64) bool {
		tp := make(dataset.Tuple, numCols)
		tp[ColAge] = age
		tp[ColSalary] = salary
		return IsGroupA(2, tp)
	}
	cases := []struct {
		age, salary float64
		want        bool
	}{
		{30, 75_000, true},
		{30, 120_000, false},
		{50, 100_000, true},
		{50, 60_000, false},
		{70, 50_000, true},
		{70, 100_000, false},
	}
	for _, c := range cases {
		if got := probe(c.age, c.salary); got != c.want {
			t.Errorf("F2(age=%v, salary=%v) = %v, want %v", c.age, c.salary, got, c.want)
		}
		inRegion := false
		for _, r := range regions {
			if r.Contains(c.age, c.salary) {
				inRegion = true
			}
		}
		if inRegion != c.want {
			t.Errorf("regions disagree with function at (%v, %v)", c.age, c.salary)
		}
	}
}

func TestFunctionEvaluations(t *testing.T) {
	// Spot checks for the formula-based functions.
	tp := make(dataset.Tuple, numCols)
	tp[ColSalary] = 100_000
	tp[ColCommission] = 0
	tp[ColLoan] = 100_000
	// F7: 0.67*100000 - 0.2*100000 - 20000 = 67000-20000-20000 = 27000 > 0
	if !IsGroupA(7, tp) {
		t.Error("F7 should be Group A for salary 100k, loan 100k")
	}
	tp[ColLoan] = 400_000
	// 67000 - 80000 - 20000 < 0
	if IsGroupA(7, tp) {
		t.Error("F7 should be other for salary 100k, loan 400k")
	}
	tp[ColELevel] = 4
	tp[ColLoan] = 0
	// F8: 67000 - 20000 - 10000 = 37000 > 0
	if !IsGroupA(8, tp) {
		t.Error("F8 should be Group A")
	}
	// F10 with equity: hyears 30, hvalue 500k -> equity = 0.1*500000*10 = 500000
	tp[ColHYears] = 30
	tp[ColHValue] = 500_000
	if !IsGroupA(10, tp) {
		t.Error("F10 should be Group A with high equity")
	}
	tp[ColHYears] = 10 // no equity
	tp[ColSalary] = 20_000
	tp[ColCommission] = 0
	if IsGroupA(10, tp) {
		t.Error("F10 should be other with low income and no equity")
	}
}

func TestPerturbationMovesValues(t *testing.T) {
	// Same seed with and without perturbation: tuple i draws the same
	// attributes either way, then perturbation shifts each by at most
	// P/2 of its domain width.
	bt, _ := dataset.Materialize(source(t, Config{Function: 2, N: 200, Seed: 99}))
	pt, _ := dataset.Materialize(source(t, Config{Function: 2, N: 200, Seed: 99, Perturbation: 0.05}))
	diff := 0
	for i := 0; i < bt.Len(); i++ {
		d := math.Abs(bt.Row(i)[ColSalary] - pt.Row(i)[ColSalary])
		if d > 0.025*(SalaryMax-SalaryMin) {
			t.Errorf("tuple %d: salary moved by %v, more than P/2 of its domain", i, d)
		}
		if d != 0 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("perturbation had no effect on salaries")
	}
}
