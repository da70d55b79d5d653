package grid

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("zero rows should error")
	}
	if _, err := New(5, 0); err == nil {
		t.Error("zero cols should error")
	}
}

func TestSetGetClear(t *testing.T) {
	bm, _ := New(3, 130) // spans three words per row
	cells := [][2]int{{0, 0}, {1, 63}, {1, 64}, {2, 129}}
	for _, c := range cells {
		bm.Set(c[0], c[1])
	}
	for _, c := range cells {
		if !bm.Get(c[0], c[1]) {
			t.Errorf("cell %v should be set", c)
		}
	}
	if bm.PopCount() != 4 {
		t.Errorf("PopCount = %d", bm.PopCount())
	}
	bm.Clear(1, 64)
	if bm.Get(1, 64) {
		t.Error("cell (1,64) should be cleared")
	}
	if bm.Get(1, 63) != true {
		t.Error("clearing one bit must not disturb neighbors")
	}
}

// TestSetBitMatchesSet: the position CellBit gives a cell sets exactly
// that cell, and BitCell inverts it, at widths around the word
// boundaries.
func TestSetBitMatchesSet(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 130, 200} {
		for r := 0; r < 3; r++ {
			for c := 0; c < cols; c++ {
				got, _ := New(3, cols)
				want, _ := New(3, cols)
				pos := CellBit(cols, r, c)
				got.SetBit(uint32(pos))
				want.Set(r, c)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d cols: SetBit(CellBit(%d, %d)) sets\n%s\nwant\n%s", cols, r, c, got, want)
				}
				if br, bc := BitCell(cols, pos); br != r || bc != c {
					t.Fatalf("%d cols: BitCell(%d) = (%d, %d), want (%d, %d)", cols, pos, br, bc, r, c)
				}
			}
		}
	}
}

func TestGetPanicsOutOfRange(t *testing.T) {
	bm, _ := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Get should panic")
		}
	}()
	bm.Get(2, 0)
}

func TestAnyAndClone(t *testing.T) {
	bm, _ := New(4, 4)
	if bm.Any() {
		t.Error("fresh bitmap should be empty")
	}
	bm.Set(2, 3)
	clone := bm.Clone()
	bm.Clear(2, 3)
	if !clone.Get(2, 3) {
		t.Error("clone should be independent")
	}
	if bm.Any() {
		t.Error("original should be empty after clear")
	}
}

func TestClearAndFillRect(t *testing.T) {
	bm, _ := New(5, 5)
	rect := Rect{R0: 1, C0: 1, R1: 3, C1: 2}
	bm.FillRect(rect)
	if bm.PopCount() != rect.Area() {
		t.Errorf("PopCount = %d, want %d", bm.PopCount(), rect.Area())
	}
	bm.ClearRect(rect)
	if bm.Any() {
		t.Error("bitmap should be empty after ClearRect")
	}
}

// TestRowOps drives the BitOp sweep's fused kernel, AndRowInto, on a
// two-word (70-column) bitmap.
func TestRowOps(t *testing.T) {
	bm, _ := New(4, 70)
	for _, c := range []int{5, 65} {
		bm.Set(0, c)
		bm.Set(1, c) // row 1 equals row 0
	}
	bm.Set(2, 5) // row 2 drops column 65, in the second word
	// row 3 is empty
	wpr := bm.WordsPerRow()
	if wpr != 2 {
		t.Fatalf("WordsPerRow = %d, want 2", wpr)
	}
	src := make([]uint64, wpr)
	bm.CopyRow(src, 0)
	if MaskEmpty(src) {
		t.Error("copied row should not be empty")
	}
	before := append([]uint64(nil), src...)
	dst := make([]uint64, wpr)
	columns := func(mask []uint64) []int {
		var cols []int
		MaskRuns(mask, mask, 70, func(c0, c1 int) {
			for c := c0; c <= c1; c++ {
				cols = append(cols, c)
			}
		})
		return cols
	}

	if changed, empty := bm.AndRowInto(dst, src, 1); changed || empty {
		t.Errorf("equal row: changed=%v empty=%v, want false false", changed, empty)
	}
	if got := columns(dst); !reflect.DeepEqual(got, []int{5, 65}) {
		t.Errorf("equal row: dst columns %v, want [5 65]", got)
	}

	changed, empty := bm.AndRowInto(dst, src, 2)
	if !changed || empty {
		t.Errorf("row dropping a bit: changed=%v empty=%v, want true false", changed, empty)
	}
	row := bm.Row(2)
	for i := range dst {
		if dst[i] != src[i]&row[i] {
			t.Errorf("word %d: dst %#x, want src AND row %#x", i, dst[i], src[i]&row[i])
		}
	}
	if got := columns(dst); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("row dropping a bit: dst columns %v, want [5]", got)
	}
	if !reflect.DeepEqual(src, before) {
		t.Errorf("src changed from %v to %v", before, src)
	}

	if changed, empty := bm.AndRowInto(dst, src, 3); !changed || !empty {
		t.Errorf("empty row: changed=%v empty=%v, want true true", changed, empty)
	}
	zero := make([]uint64, wpr)
	if !MaskEmpty(zero) {
		t.Error("zero mask should be empty")
	}
	if changed, empty := bm.AndRowInto(dst, zero, 0); changed || !empty {
		t.Errorf("zero mask: changed=%v empty=%v, want false true", changed, empty)
	}

	// SetRow drops the bits past column 69, so a full word pattern sets
	// exactly the 70 cells of the row.
	bm.SetRow(3, []uint64{^uint64(0), ^uint64(0)})
	if got := columns(bm.Row(3)); len(got) != 70 || bm.PopCount() != 5+70 {
		t.Errorf("SetRow of all ones: row columns %v, PopCount %d, want 0..69 and 75", got, bm.PopCount())
	}
}

func TestMaskRuns(t *testing.T) {
	bm, _ := New(1, 10)
	for _, c := range []int{0, 1, 2, 4, 7, 8, 9} {
		bm.Set(0, c)
	}
	var runs [][2]int
	MaskRuns(bm.Row(0), bm.Row(0), 10, func(c0, c1 int) {
		runs = append(runs, [2]int{c0, c1})
	})
	want := [][2]int{{0, 2}, {4, 4}, {7, 9}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("runs = %v, want %v", runs, want)
			break
		}
	}
}

func TestMaskRunsAcrossWordBoundary(t *testing.T) {
	bm, _ := New(1, 130)
	for c := 60; c < 70; c++ {
		bm.Set(0, c)
	}
	var runs [][2]int
	MaskRuns(bm.Row(0), bm.Row(0), 130, func(c0, c1 int) {
		runs = append(runs, [2]int{c0, c1})
	})
	if len(runs) != 1 || runs[0] != [2]int{60, 69} {
		t.Errorf("runs = %v, want [[60 69]]", runs)
	}
}

// TestMaskRunsCut checks MaskRuns's cut selection on a 200-column
// (four-word) mask whose runs cross word boundaries: a run is visited
// when cut holds any of its bits, its first and last columns included,
// and only then, and it is always passed whole.
func TestMaskRunsCut(t *testing.T) {
	const cols = 200
	runs := [][2]int{{0, 0}, {3, 9}, {60, 130}, {140, 191}, {193, 199}}
	mask := make([]uint64, 4)
	setCols := func(words []uint64, cs ...int) []uint64 {
		for _, c := range cs {
			words[c/64] |= 1 << uint(c%64)
		}
		return words
	}
	for _, r := range runs {
		for c := r[0]; c <= r[1]; c++ {
			setCols(mask, c)
		}
	}
	visit := func(cut []uint64) [][2]int {
		var got [][2]int
		MaskRuns(mask, cut, cols, func(c0, c1 int) {
			got = append(got, [2]int{c0, c1})
		})
		return got
	}
	for _, tc := range []struct {
		name string
		cut  []uint64
		want [][2]int
	}{
		{"cut equal to mask", mask, runs},
		{"empty cut", make([]uint64, 4), nil},
		{"cut off the runs", setCols(make([]uint64, 4), 1, 2, 59, 131, 192), nil},
		{"first columns", setCols(make([]uint64, 4), 0, 60, 193), [][2]int{runs[0], runs[2], runs[4]}},
		{"last columns", setCols(make([]uint64, 4), 9, 130, 191, 199), runs[1:]},
		{"across the word boundaries", setCols(make([]uint64, 4), 64, 128, 190), [][2]int{runs[2], runs[3]}},
		{"several bits of one run", setCols(make([]uint64, 4), 61, 63, 100, 127, 129), [][2]int{runs[2]}},
		{"all ones", []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, runs},
	} {
		if got := visit(tc.cut); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: runs %v, want %v", tc.name, got, tc.want)
		}
	}

	// A run that fills whole words, and one that ends at the last
	// column of a width that is a multiple of 64.
	full := []uint64{^uint64(1<<10 - 1), ^uint64(0), 1<<63 | 1}
	var got [][2]int
	MaskRuns(full, []uint64{0, 0, 1 << 63}, 192, func(c0, c1 int) {
		got = append(got, [2]int{c0, c1})
	})
	MaskRuns(full, []uint64{0, 1 << 5, 0}, 192, func(c0, c1 int) {
		got = append(got, [2]int{c0, c1})
	})
	if want := [][2]int{{191, 191}, {10, 128}}; !reflect.DeepEqual(got, want) {
		t.Errorf("whole-word runs: %v, want %v", got, want)
	}
}

// TestAnyInRect holds AnyInRect to a cell-by-cell scan on sparse
// 3×200 bitmaps, over rectangles inside one word and across words.
func TestAnyInRect(t *testing.T) {
	bm, _ := New(3, 200)
	for _, cell := range [][2]int{{0, 0}, {0, 63}, {1, 64}, {1, 130}, {2, 199}} {
		bm.Set(cell[0], cell[1])
	}
	for r0 := 0; r0 < 3; r0++ {
		for r1 := r0; r1 < 3; r1++ {
			for c0 := 0; c0 < 200; c0 += 3 {
				for c1 := c0; c1 < 200; c1 += 7 {
					rect := Rect{R0: r0, C0: c0, R1: r1, C1: c1}
					want := false
					for r := r0; r <= r1; r++ {
						for c := c0; c <= c1; c++ {
							want = want || bm.Get(r, c)
						}
					}
					if got := bm.AnyInRect(rect); got != want {
						t.Fatalf("AnyInRect(%v) = %v, want %v", rect, got, want)
					}
				}
			}
		}
	}
}

func TestBitmapString(t *testing.T) {
	bm, _ := New(2, 3)
	bm.Set(0, 0) // bottom-left in rendering
	bm.Set(1, 2) // top-right
	got := bm.String()
	want := "..#\n#..\n"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.Contains(got, "#") {
		t.Error("rendering missing set cells")
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{R0: 1, C0: 2, R1: 3, C1: 5}
	if r.Area() != 12 || r.Width() != 4 || r.Height() != 3 {
		t.Errorf("Area/Width/Height = %d/%d/%d", r.Area(), r.Width(), r.Height())
	}
	if !r.Contains(1, 2) || !r.Contains(3, 5) || r.Contains(0, 2) || r.Contains(1, 6) {
		t.Error("Contains wrong")
	}
	if !r.Intersects(Rect{R0: 3, C0: 5, R1: 9, C1: 9}) {
		t.Error("corner-touching rectangles intersect")
	}
	if r.Intersects(Rect{R0: 4, C0: 0, R1: 5, C1: 9}) {
		t.Error("disjoint rows should not intersect")
	}
	u := r.Union(Rect{R0: 0, C0: 4, R1: 2, C1: 7})
	if u != (Rect{R0: 0, C0: 2, R1: 3, C1: 7}) {
		t.Errorf("Union = %v", u)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestPopCountMatchesGets(t *testing.T) {
	f := func(cells []uint16) bool {
		bm, _ := New(16, 100)
		want := map[[2]int]bool{}
		for _, raw := range cells {
			r := int(raw) % 16
			c := int(raw>>4) % 100
			bm.Set(r, c)
			want[[2]int{r, c}] = true
		}
		return bm.PopCount() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDenseGrid(t *testing.T) {
	d, err := NewDense(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDense(0, 1); err == nil {
		t.Error("zero rows should error")
	}
	d.Set(1, 2, 0.7)
	d.Set(2, 3, 0.2)
	if d.At(1, 2) != 0.7 || d.At(2, 3) != 0.2 || d.At(0, 0) != 0 {
		t.Errorf("At = %v, %v, %v; want 0.7, 0.2, 0", d.At(1, 2), d.At(2, 3), d.At(0, 0))
	}
	if d.Rows() != 3 || d.Cols() != 4 {
		t.Errorf("dims = %d×%d, want 3×4", d.Rows(), d.Cols())
	}
}
