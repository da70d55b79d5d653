package c45

import (
	"strings"
	"testing"

	"arcs/internal/dataset"
)

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
