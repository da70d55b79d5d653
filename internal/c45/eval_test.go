package c45

import (
	"math"
	"strings"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/synth"
)

func TestConfusionMatrix(t *testing.T) {
	tb := andTable(t, 64)
	tree, err := Train(tb, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Confusion(tree, tb, "class")
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != 64 {
		t.Errorf("Total = %d", m.Total())
	}
	if m.Accuracy() != 1 {
		t.Errorf("Accuracy = %v on perfectly learnable data", m.Accuracy())
	}
	// Perfect classifier: precision and recall 1 for both classes.
	for class := 0; class < 2; class++ {
		if m.Precision(class) != 1 || m.Recall(class) != 1 {
			t.Errorf("class %d: precision=%v recall=%v", class, m.Precision(class), m.Recall(class))
		}
	}
	s := m.String()
	if !strings.Contains(s, "actual") || !strings.Contains(s, "0") {
		t.Errorf("String = %q", s)
	}
}

func TestConfusionErrors(t *testing.T) {
	tb := andTable(t, 16)
	tree, _ := Train(tb, "class", Config{})
	if _, err := Confusion(tree, tb, "nope"); err == nil {
		t.Error("unknown class attribute should error")
	}
}

func TestConfusionImbalanced(t *testing.T) {
	// A constant classifier on imbalanced data: accuracy equals the
	// majority fraction, minority recall 0.
	s := &dataset.Schema{}
	s.MustAdd("x", dataset.Quantitative)
	cls := s.MustAdd("class", dataset.Categorical)
	cls.CategoryCode("maj")
	cls.CategoryCode("min")
	tb := dataset.NewTable(s)
	for i := 0; i < 9; i++ {
		tb.MustAppend(dataset.Tuple{float64(i), 0})
	}
	tb.MustAppend(dataset.Tuple{99, 1})
	m, err := Confusion(constantClassifier(0), tb, "class")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Accuracy()-0.9) > 1e-12 {
		t.Errorf("Accuracy = %v", m.Accuracy())
	}
	if m.Recall(1) != 0 {
		t.Errorf("minority recall = %v", m.Recall(1))
	}
	if math.Abs(m.Precision(0)-0.9) > 1e-12 {
		t.Errorf("majority precision = %v", m.Precision(0))
	}
}

type constantClassifier int

func (c constantClassifier) Classify(dataset.Tuple) int { return int(c) }

func TestCrossValidate(t *testing.T) {
	st, _ := synth.NewStream(synth.Config{Function: 2, N: 9_000, Seed: 5, FracA: 0.4})
	tb, err := dataset.Materialize(st.Source())
	if err != nil {
		t.Fatal(err)
	}
	errs, err := CrossValidate(tb, synth.AttrGroup, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 {
		t.Fatalf("folds = %d", len(errs))
	}
	for i, e := range errs {
		if e < 0 || e > 0.2 {
			t.Errorf("fold %d error = %v; F2 should be learnable", i, e)
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	tb := andTable(t, 16)
	if _, err := CrossValidate(tb, "class", Config{}, 1); err == nil {
		t.Error("k=1 should error")
	}
	tiny := andTable(t, 4)
	if _, err := CrossValidate(tiny, "class", Config{}, 8); err == nil {
		t.Error("more folds than tuples should error")
	}
}

func TestRenderTree(t *testing.T) {
	tb := andTable(t, 64)
	tree, err := Train(tb, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tree.Render(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a = ", "b = ", "(", "|   "} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Depth truncation.
	sb.Reset()
	if err := tree.Render(&sb, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "...") {
		t.Errorf("depth-1 render missing truncation:\n%s", sb.String())
	}
	// A pure leaf tree renders as a single line.
	s := &dataset.Schema{}
	s.MustAdd("x", dataset.Quantitative)
	cls := s.MustAdd("class", dataset.Categorical)
	cls.CategoryCode("only")
	cls.CategoryCode("pad")
	leafTB := dataset.NewTable(s)
	for i := 0; i < 5; i++ {
		leafTB.MustAppend(dataset.Tuple{float64(i), 0})
	}
	leafTree, err := Train(leafTB, "class", Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := leafTree.Render(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only (5.0)") {
		t.Errorf("leaf render = %q", sb.String())
	}
}
