package dataset

import (
	"io"
	"math"
	"strings"
	"testing"
)

func demoSchema() *Schema {
	return NewSchema(
		Attribute{Name: "age", Kind: Quantitative},
		Attribute{Name: "salary", Kind: Quantitative},
		Attribute{Name: "group", Kind: Categorical},
	)
}

func demoTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable(demoSchema())
	rows := [][]interface{}{
		{30, 50000.0, "A"},
		{45, 80000.0, "B"},
		{62, 30000.0, "A"},
	}
	for _, r := range rows {
		if err := tb.AppendValues(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestTableAppendAndIterate(t *testing.T) {
	tb := demoTable(t)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	var ages []float64
	if err := ForEach(tb, func(tp Tuple) error {
		ages = append(ages, tp[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []float64{30, 45, 62}
	for i := range want {
		if ages[i] != want[i] {
			t.Errorf("age[%d] = %v, want %v", i, ages[i], want[i])
		}
	}
	// A second full pass must see the same data (Reset inside ForEach).
	n := 0
	if err := ForEach(tb, func(Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("second pass saw %d tuples, want 3", n)
	}
}

func TestTableAppendErrors(t *testing.T) {
	tb := NewTable(demoSchema())
	if err := tb.Append(Tuple{1}); err == nil {
		t.Error("Append with wrong width should error")
	}
	if err := tb.AppendValues(1.0, 2.0); err == nil {
		t.Error("AppendValues with wrong arity should error")
	}
	if err := tb.AppendValues("not a number", 2.0, "A"); err == nil {
		t.Error("AppendValues with string for quantitative should error")
	}
	if err := tb.AppendValues(1.0, 2.0, 3.0); err == nil {
		t.Error("AppendValues with float for categorical should error")
	}
}

func TestTableColumnSliceSelectFilter(t *testing.T) {
	tb := demoTable(t)
	col := tb.Column(1)
	if len(col) != 3 || col[1] != 80000 {
		t.Errorf("Column(1) = %v", col)
	}
	sl := tb.Slice(1, 3)
	if sl.Len() != 2 || sl.Row(0)[0] != 45 {
		t.Errorf("Slice(1,3) first row = %v", sl.Row(0))
	}
	sel := tb.Select([]int{2, 0})
	if sel.Len() != 2 || sel.Row(0)[0] != 62 || sel.Row(1)[0] != 30 {
		t.Errorf("Select rows = %v, %v", sel.Row(0), sel.Row(1))
	}
	groupIdx := tb.Schema().MustIndex("group")
	codeA, _ := tb.Schema().Attr("group").LookupCategory("A")
	fil := tb.Filter(func(tp Tuple) bool { return int(tp[groupIdx]) == codeA })
	if fil.Len() != 2 {
		t.Errorf("Filter group=A kept %d rows, want 2", fil.Len())
	}
}

func TestLimitSource(t *testing.T) {
	tb := demoTable(t)
	lim := Limit(tb, 2)
	n, err := Count(lim)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("Count(Limit 2) = %d", n)
	}
	// Limit larger than the source yields the source length.
	lim5 := Limit(demoTable(t), 5)
	if got := lim5.(SizedSource).Len(); got != 3 {
		t.Errorf("Limit(5).Len() = %d, want 3", got)
	}
}

func TestFuncSource(t *testing.T) {
	s := NewSchema(Attribute{Name: "i", Kind: Quantitative})
	fs := NewFuncSource(s, 4, func(i int, out Tuple) { out[0] = float64(i * i) })
	if fs.Len() != 4 {
		t.Fatalf("Len = %d", fs.Len())
	}
	var got []float64
	if err := ForEach(fs, func(tp Tuple) error {
		got = append(got, tp[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 4, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Exhausted source keeps returning EOF.
	if _, err := fs.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v, want io.EOF", err)
	}
	// Reset replays deterministically.
	if err := fs.Reset(); err != nil {
		t.Fatal(err)
	}
	tp, err := fs.Next()
	if err != nil || tp[0] != 0 {
		t.Errorf("after Reset Next = %v, %v", tp, err)
	}
}

func TestMaterialize(t *testing.T) {
	s := NewSchema(Attribute{Name: "i", Kind: Quantitative})
	fs := NewFuncSource(s, 3, func(i int, out Tuple) { out[0] = float64(i) })
	tb, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("materialized %d rows", tb.Len())
	}
	// FuncSource reuses its buffer; Materialize must have cloned.
	if tb.Row(0)[0] == tb.Row(2)[0] {
		t.Error("rows alias the same buffer; Materialize failed to clone")
	}
}

func TestCountSizedFastPath(t *testing.T) {
	tb := demoTable(t)
	// Move the cursor; Count must not be affected by it.
	if _, err := tb.Next(); err != nil {
		t.Fatal(err)
	}
	n, err := Count(tb)
	if err != nil || n != 3 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

// TestTableViewAppendLeavesParent: appending to a Slice or Shard view
// copies the view's rows out first, so the parent's rows and a sibling
// view's keep their values bit for bit.
func TestTableViewAppendLeavesParent(t *testing.T) {
	for _, n := range []int{4, slabRows + 4} {
		tb := NewTable(shardSchema())
		for i := range n {
			tb.MustAppend(Tuple{float64(i) + 0.5})
		}
		before := tb.Column(0)
		sl := tb.Slice(0, 1)
		sl.MustAppend(Tuple{99})
		sh, err := tb.Shard(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		sh.(*Table).MustAppend(Tuple{98})
		sibling, err := tb.Shard(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if after := tb.Column(0); !sameBits(after, before) {
			t.Fatalf("n=%d: parent rows changed by appends to its views: %v, want %v", n, after[:4], before[:4])
		}
		if r := drain(t, sibling); r[0][0] != before[n/2] || len(r) != n-n/2 {
			t.Errorf("n=%d: sibling shard starts at %v with %d rows, want %v and %d", n, r[0], len(r), before[n/2], n-n/2)
		}
		if sl.Len() != 2 || sl.Row(0)[0] != before[0] || sl.Row(1)[0] != 99 {
			t.Errorf("n=%d: slice after append = %v, %v", n, sl.Row(0), sl.Row(1))
		}
		if got := sh.(*Table); got.Len() != n/2+1 || got.Row(n / 2)[0] != 98 {
			t.Errorf("n=%d: shard after append has %d rows ending %v", n, got.Len(), got.Row(got.Len()-1))
		}
	}
}

// TestTableLayoutPaths: every way of building or viewing a table yields
// the same rows, bit for bit, at sizes on either side of a slab boundary,
// and every row is a full-capacity slice, so appending to one cannot
// overwrite the next.
func TestTableLayoutPaths(t *testing.T) {
	schema := func() *Schema {
		s := NewSchema(
			Attribute{Name: "x", Kind: Quantitative},
			Attribute{Name: "y", Kind: Quantitative},
			Attribute{Name: "g", Kind: Categorical},
		)
		for _, l := range []string{"a", "b", "c"} {
			if _, err := s.Attr("g").CategoryCode(l); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}()
	labels := []string{"a", "b", "c"}
	// Row i of a case; rows outside [0, n) pad the parents of views.
	gen := func(i int, out Tuple) {
		out[0] = float64(i)/7 - 300
		out[1] = math.Ldexp(float64(i%97)-48.25, i%9-4)
		out[2] = float64((i%3 + 3) % 3)
	}
	const pad = 5
	for _, n := range []int{0, 1, slabRows - 1, slabRows, slabRows + 1, 3*slabRows + 7} {
		want := make([]Tuple, n)
		for i := range want {
			want[i] = make(Tuple, schema.Len())
			gen(i, want[i])
		}
		src := NewFuncSource(schema, n, gen)
		// padded holds the case's rows behind pad rows and ahead of pad more.
		padded, err := Materialize(NewFuncSource(schema, n+2*pad, func(i int, out Tuple) { gen(i-pad, out) }))
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string]*Table{}
		check := func(name string, tb *Table, err error) {
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			paths[name] = tb
		}

		tb := NewTable(schema)
		buf := make(Tuple, schema.Len())
		for i := range n {
			gen(i, buf)
			if err := tb.Append(buf); err != nil {
				t.Fatal(err)
			}
		}
		check("Append", tb, nil)

		tb = NewTable(schema)
		for _, r := range want {
			if err := tb.AppendValues(r[0], r[1], labels[int(r[2])]); err != nil {
				t.Fatal(err)
			}
		}
		check("AppendValues", tb, nil)

		tb, err = Materialize(src)
		check("Materialize sized", tb, err)
		tb, err = Materialize(unsizedSource{src})
		check("Materialize unsized", tb, err)

		var text strings.Builder
		if err := WriteCSV(&text, src); err != nil {
			t.Fatal(err)
		}
		tb, err = ReadCSV(strings.NewReader(text.String()), schema)
		check("ReadCSV", tb, err)

		check("Slice", padded.Slice(pad, pad+n), nil)
		check("Slice of a Slice", padded.Slice(1, n+2*pad-1).Slice(pad-1, pad-1+n), nil)

		shards := NewTable(schema)
		for i := range 3 {
			sh, err := paths["Materialize sized"].Shard(i, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range drain(t, sh) {
				shards.MustAppend(r)
			}
		}
		check("Shard", shards, nil)

		idx := make([]int, n)
		for i := range idx {
			idx[i] = pad + i
		}
		check("Select", padded.Select(idx), nil)
		lo, hi := -300.0, float64(n)/7-300
		check("Filter", padded.Filter(func(r Tuple) bool { return r[0] >= lo && r[0] < hi }), nil)

		for name, tb := range paths {
			if tb.Len() != n {
				t.Fatalf("n=%d %s: %d rows", n, name, tb.Len())
			}
			for i, w := range want {
				if r := tb.Row(i); !sameBits(r, w) || cap(r) != len(r) {
					t.Fatalf("n=%d %s: row %d = %v (cap %d), want %v (cap %d)", n, name, i, r, cap(r), w, len(w))
				}
			}
			for i, r := range drain(t, tb) {
				if !sameBits(r, want[i]) {
					t.Fatalf("n=%d %s: Next's row %d = %v, want %v", n, name, i, r, want[i])
				}
			}
			for c := range schema.Len() {
				col := tb.Column(c)
				for i, w := range want {
					if !sameBits(col[i:i+1], w[c:c+1]) {
						t.Fatalf("n=%d %s: Column(%d)[%d] = %v, want %v", n, name, c, i, col[i], w[c])
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
