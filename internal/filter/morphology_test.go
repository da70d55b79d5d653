package filter

import (
	"reflect"
	"testing"

	"arcs/internal/grid"
)

// erodeCells and dilateCells are the per-cell erosion and dilation by
// the 3×3 cross, reading every cell with Get. They are the oracles for
// the word-level Erode and Dilate.
func erodeCells(bm *grid.Bitmap) *grid.Bitmap {
	rows, cols := bm.Rows(), bm.Cols()
	out, _ := grid.New(rows, cols)
	get := func(r, c int) bool {
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return true // border padding: set
		}
		return bm.Get(r, c)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if get(r, c) && get(r-1, c) && get(r+1, c) && get(r, c-1) && get(r, c+1) {
				out.Set(r, c)
			}
		}
	}
	return out
}

func dilateCells(bm *grid.Bitmap) *grid.Bitmap {
	rows, cols := bm.Rows(), bm.Cols()
	out, _ := grid.New(rows, cols)
	set := func(r, c int) {
		if r >= 0 && r < rows && c >= 0 && c < cols {
			out.Set(r, c)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if bm.Get(r, c) {
				set(r, c)
				set(r-1, c)
				set(r+1, c)
				set(r, c-1)
				set(r, c+1)
			}
		}
	}
	return out
}

// TestMorphologyMatchesCellOracle: the word-level erosion and dilation,
// and the opening of the closing that -smoothing morphological runs, set
// exactly the cells the per-cell versions set.
func TestMorphologyMatchesCellOracle(t *testing.T) {
	oracleGrids(t, func(bm *grid.Bitmap) {
		for _, tc := range []struct {
			name      string
			got, want *grid.Bitmap
		}{
			{"Erode", Erode(bm), erodeCells(bm)},
			{"Dilate", Dilate(bm), dilateCells(bm)},
			{"Open(Close)", Open(Close(bm)), dilateCells(erodeCells(erodeCells(dilateCells(bm))))},
		} {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Fatalf("%d×%d grid: %s\n%s\nwant\n%s\ninput\n%s",
					bm.Rows(), bm.Cols(), tc.name, tc.got, tc.want, bm)
			}
		}
	})
}

func TestErodeRemovesIsolatedCell(t *testing.T) {
	bm := mk(t,
		".....",
		"..#..",
		".....",
	)
	out := Erode(bm)
	if out.Any() {
		t.Errorf("isolated cell survived erosion:\n%s", out)
	}
}

func TestErodeKeepsBlockCore(t *testing.T) {
	bm := mk(t,
		"#####",
		"#####",
		"#####",
	)
	out := Erode(bm)
	// With set border padding, the full block survives.
	if out.PopCount() != bm.PopCount() {
		t.Errorf("full block eroded: %d -> %d", bm.PopCount(), out.PopCount())
	}
}

func TestDilateGrows(t *testing.T) {
	bm := mk(t,
		".....",
		"..#..",
		".....",
	)
	out := Dilate(bm)
	want := [][2]int{{1, 2}, {0, 2}, {2, 2}, {1, 1}, {1, 3}}
	if out.PopCount() != len(want) {
		t.Fatalf("dilated popcount = %d, want %d:\n%s", out.PopCount(), len(want), out)
	}
	for _, c := range want {
		if !out.Get(c[0], c[1]) {
			t.Errorf("cell %v not set after dilation", c)
		}
	}
}

func TestOpenRemovesNoiseKeepsClusters(t *testing.T) {
	// The block spans the full image height, so the set border padding
	// protects it; interior rectangle corners away from the border are
	// legitimately rounded by a cross structuring element.
	bm := mk(t,
		"####...#",
		"####....",
		"####..#.",
	)
	out := Open(bm)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if !out.Get(r, c) {
				t.Errorf("block cell (%d,%d) lost by opening", r, c)
			}
		}
	}
	if out.Get(0, 7) || out.Get(2, 6) {
		t.Error("isolated noise survived opening")
	}
}

func TestCloseFillsHole(t *testing.T) {
	bm := mk(t,
		"#####",
		"##.##",
		"#####",
	)
	out := Close(bm)
	if !out.Get(1, 2) {
		t.Errorf("hole not filled by closing:\n%s", out)
	}
	// Closing must not shrink the block.
	if out.PopCount() < bm.PopCount() {
		t.Errorf("closing lost cells: %d -> %d", bm.PopCount(), out.PopCount())
	}
}

func TestOpenIdempotent(t *testing.T) {
	bm := mk(t,
		"##..#",
		"##.##",
		".#.##",
		"#....",
	)
	once := Open(bm)
	twice := Open(once)
	if once.PopCount() != twice.PopCount() {
		t.Fatalf("opening not idempotent: %d vs %d cells", once.PopCount(), twice.PopCount())
	}
	for r := 0; r < bm.Rows(); r++ {
		for c := 0; c < bm.Cols(); c++ {
			if once.Get(r, c) != twice.Get(r, c) {
				t.Fatalf("opening not idempotent at (%d,%d)", r, c)
			}
		}
	}
}
