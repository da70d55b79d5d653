package c45

import (
	"math"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/synth"
)

// andTable builds a small categorical dataset with class = a AND b.
// (XOR is deliberately not used: with zero marginal gain per attribute,
// greedy gain-based induction — like the real C4.5 — cannot split on it.)
func andTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	s := &dataset.Schema{}
	a := s.MustAdd("a", dataset.Categorical)
	b := s.MustAdd("b", dataset.Categorical)
	cls := s.MustAdd("class", dataset.Categorical)
	for _, v := range []string{"0", "1"} {
		a.CategoryCode(v)
		b.CategoryCode(v)
		cls.CategoryCode(v)
	}
	tb := dataset.NewTable(s)
	for i := 0; i < n; i++ {
		av := float64(i % 2)
		bv := float64((i / 2) % 2)
		cv := float64(int(av) & int(bv))
		tb.MustAppend(dataset.Tuple{av, bv, cv})
	}
	return tb
}

func f2Table(t *testing.T, n int, outliers float64) *dataset.Table {
	t.Helper()
	st, err := synth.NewStream(synth.Config{
		Function: 2, N: n, Seed: 21,
		Perturbation: 0.05, OutlierFraction: outliers, FracA: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := dataset.Materialize(st.Source())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTrainValidation(t *testing.T) {
	tb := andTable(t, 16)
	if _, err := Train(tb, "nope", Config{}); err == nil {
		t.Error("unknown class attribute should error")
	}
	empty := dataset.NewTable(tb.Schema())
	if _, err := Train(empty, "class", Config{}); err == nil {
		t.Error("empty table should error")
	}
	// Quantitative class attribute.
	s2 := &dataset.Schema{}
	s2.MustAdd("x", dataset.Quantitative)
	s2.MustAdd("y", dataset.Quantitative)
	tb2 := dataset.NewTable(s2)
	tb2.MustAppend(dataset.Tuple{1, 2})
	if _, err := Train(tb2, "y", Config{}); err == nil {
		t.Error("quantitative class should error")
	}
}

func TestLearnsConjunction(t *testing.T) {
	tb := andTable(t, 64)
	tree, err := Train(tb, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.ErrorRate(tb); got != 0 {
		t.Errorf("training error on a AND b = %v, want 0", got)
	}
	if tree.Depth() < 2 {
		t.Errorf("a AND b needs depth >= 2, got %d", tree.Depth())
	}
}

func TestLearnsContinuousThreshold(t *testing.T) {
	// class = (x > 5), learnable with one split.
	s := &dataset.Schema{}
	s.MustAdd("x", dataset.Quantitative)
	cls := s.MustAdd("class", dataset.Categorical)
	cls.CategoryCode("lo")
	cls.CategoryCode("hi")
	tb := dataset.NewTable(s)
	for i := 0; i < 100; i++ {
		x := float64(i) / 10
		c := 0.0
		if x > 5 {
			c = 1
		}
		tb.MustAppend(dataset.Tuple{x, c})
	}
	tree, err := Train(tb, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.ErrorRate(tb); got != 0 {
		t.Errorf("training error = %v", got)
	}
	if tree.Root.IsLeaf() || tree.Root.Categorical {
		t.Fatal("root should be a continuous split")
	}
	if math.Abs(tree.Root.Threshold-5.05) > 0.2 {
		t.Errorf("threshold = %v, want ~5.05", tree.Root.Threshold)
	}
	// Classification on fresh values.
	if tree.Classify(dataset.Tuple{2, 0}) != 0 || tree.Classify(dataset.Tuple{9, 0}) != 1 {
		t.Error("classification wrong")
	}
}

func TestLearnsFunction2(t *testing.T) {
	train := f2Table(t, 5_000, 0)
	test := f2Table(t, 2_000, 0)
	tree, err := Train(train, synth.AttrGroup, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Raw tree error on F2 is seed-sensitive: the function contains an
	// XOR-like quadrant (age 60 × salary 75k) where greedy single-split
	// induction may stall or fragment. The generalized rule set — what
	// the paper's evaluation compares — must be accurate regardless.
	// At this small training size the variance is large; the experiment
	// suite asserts the tight paper-scale behaviour (3-4% rule error at
	// 20k tuples).
	if got := tree.ErrorRate(test); got > 0.25 {
		t.Errorf("F2 tree test error = %.3f, want < 0.25", got)
	}
	rs := tree.ExtractRules(train)
	if got := rs.ErrorRate(test); got > 0.2 {
		t.Errorf("F2 rule-set test error = %.3f, want < 0.2", got)
	}
	if tree.NumLeaves() < 4 {
		t.Errorf("tree with %d leaves is too simple for F2", tree.NumLeaves())
	}
}

func TestPruningShrinksTree(t *testing.T) {
	// Noisy data: pruning should reduce leaves without large error cost.
	train := f2Table(t, 4_000, 0.15)
	unpruned, err := Train(train, synth.AttrGroup, Config{CF: -1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Train(train, synth.AttrGroup, Config{CF: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumLeaves() > unpruned.NumLeaves() {
		t.Errorf("pruned tree has more leaves (%d) than unpruned (%d)",
			pruned.NumLeaves(), unpruned.NumLeaves())
	}
	test := f2Table(t, 2_000, 0.15)
	// Compare the generalized rule sets: tree-level error is noisy on
	// this data (see TestLearnsFunction2), but pruning must not wreck
	// the final classifier.
	ep := pruned.ExtractRules(train).ErrorRate(test)
	eu := unpruned.ExtractRules(train).ErrorRate(test)
	if ep > eu+0.08 {
		t.Errorf("pruning degraded rule error too much: %.3f vs %.3f", ep, eu)
	}
}

func TestUpperErrorBound(t *testing.T) {
	// Zero observed errors still yield a positive pessimistic estimate.
	if got := upperErrorBound(0, 10, 0.25); got <= 0 {
		t.Errorf("U(0, 10) = %v, want > 0", got)
	}
	// More pessimism (smaller CF) gives a larger bound.
	lo := upperErrorBound(2, 20, 0.25)
	hi := upperErrorBound(2, 20, 0.05)
	if hi <= lo {
		t.Errorf("CF 0.05 bound (%v) should exceed CF 0.25 bound (%v)", hi, lo)
	}
	// Bound grows with observed errors.
	if upperErrorBound(5, 20, 0.25) <= upperErrorBound(1, 20, 0.25) {
		t.Error("bound should grow with errors")
	}
	if upperErrorBound(0, 0, 0.25) != 0 {
		t.Error("empty node bound should be 0")
	}
}

func TestZForCF(t *testing.T) {
	// qnorm(0.75) ~ 0.6745.
	if got := zForCF(0.25); math.Abs(got-0.6745) > 0.01 {
		t.Errorf("z(0.25) = %v, want ~0.6745", got)
	}
	if got := zForCF(0.5); got != 0 {
		t.Errorf("z(0.5) = %v, want 0", got)
	}
	if got := zForCF(0); got < 5 {
		t.Errorf("z(0) = %v, want large", got)
	}
}

func TestExtractRules(t *testing.T) {
	train := f2Table(t, 5_000, 0)
	tree, err := Train(train, synth.AttrGroup, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := tree.ExtractRules(train)
	if len(rs.Rules) == 0 {
		t.Fatal("no rules extracted")
	}
	// The rule set should classify about as well as the tree.
	test := f2Table(t, 2_000, 0)
	treeErr := tree.ErrorRate(test)
	ruleErr := rs.ErrorRate(test)
	if ruleErr > treeErr+0.06 {
		t.Errorf("rule set error %.3f much worse than tree %.3f", ruleErr, treeErr)
	}
	// Generalization should leave fewer or equal rules than leaves.
	if len(rs.Rules) > tree.NumLeaves() {
		t.Errorf("%d rules from %d leaves", len(rs.Rules), tree.NumLeaves())
	}
	strs := rs.Strings()
	if len(strs) != len(rs.Rules)+1 {
		t.Errorf("Strings() returned %d lines for %d rules", len(strs), len(rs.Rules))
	}
}

func TestRuleMatchesSemantics(t *testing.T) {
	r := Rule{Conds: []Cond{
		{Attr: 0, Le: true, Threshold: 5},
		{Attr: 1, Categorical: true, Cat: 2},
	}, Class: 1}
	if !r.Matches(dataset.Tuple{4, 2}) {
		t.Error("should match")
	}
	if r.Matches(dataset.Tuple{6, 2}) {
		t.Error("x > threshold should not match")
	}
	if r.Matches(dataset.Tuple{4, 1}) {
		t.Error("wrong category should not match")
	}
	gt := Rule{Conds: []Cond{{Attr: 0, Le: false, Threshold: 5}}}
	if !gt.Matches(dataset.Tuple{6}) || gt.Matches(dataset.Tuple{5}) {
		t.Error("> condition semantics wrong")
	}
}

func TestRuleSetDefaultClass(t *testing.T) {
	tb := andTable(t, 64)
	tree, err := Train(tb, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := tree.ExtractRules(tb)
	// The default must be a valid class code.
	if rs.Default != 0 && rs.Default != 1 {
		t.Errorf("default class = %d", rs.Default)
	}
	// RuleSet classification on all conjunction inputs should be perfect.
	wrong := 0
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		if rs.Classify(row) != int(row[2]) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("rule set misclassifies %d/64 tuples", wrong)
	}
}

func TestMinLeafRespected(t *testing.T) {
	train := f2Table(t, 1_000, 0)
	big, err := Train(train, synth.AttrGroup, Config{MinLeaf: 100, CF: -1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Train(train, synth.AttrGroup, Config{MinLeaf: 2, CF: -1})
	if err != nil {
		t.Fatal(err)
	}
	if big.NumLeaves() >= small.NumLeaves() {
		t.Errorf("MinLeaf 100 gave %d leaves vs %d with MinLeaf 2",
			big.NumLeaves(), small.NumLeaves())
	}
}

func TestMaxDepth(t *testing.T) {
	train := f2Table(t, 2_000, 0)
	tree, err := Train(train, synth.AttrGroup, Config{MaxDepth: 2, CF: -1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", tree.Depth())
	}
}

func TestPureNodeIsLeaf(t *testing.T) {
	s := &dataset.Schema{}
	s.MustAdd("x", dataset.Quantitative)
	cls := s.MustAdd("class", dataset.Categorical)
	cls.CategoryCode("only")
	cls.CategoryCode("unused")
	tb := dataset.NewTable(s)
	for i := 0; i < 10; i++ {
		tb.MustAppend(dataset.Tuple{float64(i), 0})
	}
	tree, err := Train(tb, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Error("pure training set should give a single leaf")
	}
}
