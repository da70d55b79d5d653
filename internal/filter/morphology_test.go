package filter

import "testing"

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
