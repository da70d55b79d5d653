package filter

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"arcs/internal/grid"
)

func mk(t *testing.T, rows ...string) *grid.Bitmap {
	t.Helper()
	bm, err := grid.New(len(rows), len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for r, line := range rows {
		for c, ch := range line {
			if ch == '#' {
				bm.Set(r, c)
			}
		}
	}
	return bm
}

func TestLowPassFillsHole(t *testing.T) {
	// A dense block with a single hole: the hole's neighborhood is 8/9
	// set, so a 0.5 threshold fills it (the Figure 7 effect).
	bm := mk(t,
		"#####",
		"##.##",
		"#####",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Get(1, 2) {
		t.Error("hole not filled")
	}
}

func TestLowPassRemovesIsolatedNoise(t *testing.T) {
	bm := mk(t,
		".....",
		"..#..",
		".....",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Any() {
		t.Errorf("isolated cell survived smoothing:\n%s", out)
	}
}

func TestLowPassPreservesSolidBlock(t *testing.T) {
	bm := mk(t,
		"....",
		".##.",
		".##.",
		"....",
	)
	out, err := LowPass(bm, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 2; r++ {
		for c := 1; c <= 2; c++ {
			if !out.Get(r, c) {
				t.Errorf("block cell (%d,%d) lost", r, c)
			}
		}
	}
}

func TestLowPassThresholdValidation(t *testing.T) {
	bm := mk(t, "#")
	if _, err := LowPass(bm, 0); err == nil {
		t.Error("threshold 0 should error")
	}
	if _, err := LowPass(bm, 1.5); err == nil {
		t.Error("threshold > 1 should error")
	}
	if _, err := LowPass(bm, math.NaN()); err == nil {
		t.Error("NaN threshold should error")
	}
}

// lowPassCells is the per-cell low-pass filter: each cell's in-bounds
// 3×3 neighborhood is counted with Get and compared with the bar in
// floating point. It is the oracle for the word-level LowPass.
func lowPassCells(bm *grid.Bitmap, threshold float64) *grid.Bitmap {
	rows, cols := bm.Rows(), bm.Cols()
	out, _ := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			set, total := 0, 0
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					rr, cc := r+dr, c+dc
					if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
						continue
					}
					total++
					if bm.Get(rr, cc) {
						set++
					}
				}
			}
			if float64(set) >= threshold*float64(total) {
				out.Set(r, c)
			}
		}
	}
	return out
}

// oracleShapes are the grid sizes the word-level filter is checked on
// against its per-cell oracle: one to three rows and columns, and
// column counts on either side of one, two and three words.
var (
	oracleRows = []int{1, 2, 3, 7, 64, 65, 200}
	oracleCols = []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200}
)

// oracleGrids calls fn with random bitmaps of every oracle shape at a
// sparse, a middling and a dense fill.
func oracleGrids(t *testing.T, fn func(bm *grid.Bitmap)) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	for _, rows := range oracleRows {
		for _, cols := range oracleCols {
			for _, density := range []float64{0.1, 0.5, 0.9} {
				bm, err := grid.New(rows, cols)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						if rng.Float64() < density {
							bm.Set(r, c)
						}
					}
				}
				fn(bm)
			}
		}
	}
}

// TestLowPassMatchesCellOracle: the word-level filter sets exactly the
// cells the per-cell test sets, edges and corners included, at bars
// that fall on, just above and between the in-bounds fractions.
func TestLowPassMatchesCellOracle(t *testing.T) {
	thresholds := []float64{1e-9, 1.0 / 9, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.7, 1}
	oracleGrids(t, func(bm *grid.Bitmap) {
		for _, th := range thresholds {
			got, err := LowPass(bm, th)
			if err != nil {
				t.Fatal(err)
			}
			if want := lowPassCells(bm, th); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d×%d grid, threshold %g: LowPass\n%s\nwant\n%s\ninput\n%s",
					bm.Rows(), bm.Cols(), th, got, want, bm)
			}
		}
	})
}

func TestLowPassInputUnmodified(t *testing.T) {
	bm := mk(t, "#..", "...", "...")
	LowPass(bm, 0.5)
	if !bm.Get(0, 0) {
		t.Error("LowPass modified its input")
	}
}

func TestLowPassEdgeNeighborhoods(t *testing.T) {
	// A corner cell has a 4-cell neighborhood; 3 of 4 set >= 0.5 keeps it.
	bm := mk(t,
		"##..",
		"#...",
		"....",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Get(0, 0) {
		t.Error("corner with 3/4 set neighborhood should survive")
	}
}

// weightedAt reports which cells LowPassWeighted sets at bars just
// below and just above mean: a cell whose smoothed support is mean is
// set at the first and clear at the second.
func weightedAt(t *testing.T, d *grid.Dense, mean float64) (below, above *grid.Bitmap) {
	t.Helper()
	const eps = 1e-9
	below, err := LowPassWeighted(d, mean-eps)
	if err != nil {
		t.Fatal(err)
	}
	if above, err = LowPassWeighted(d, mean+eps); err != nil {
		t.Fatal(err)
	}
	return below, above
}

func TestLowPassWeightedUniformField(t *testing.T) {
	// A constant field is unchanged by the box mean, edges included,
	// thanks to the renormalization over in-bounds neighbors.
	d, _ := grid.NewDense(4, 5)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			d.Set(r, c, 2.5)
		}
	}
	below, above := weightedAt(t, d, 2.5)
	if n := below.PopCount(); n != 20 {
		t.Errorf("bar just below 2.5 set %d of 20 cells:\n%s", n, below)
	}
	if n := above.PopCount(); n != 0 {
		t.Errorf("bar just above 2.5 set %d cells:\n%s", n, above)
	}
}

func TestLowPassWeightedAveragesSpike(t *testing.T) {
	// A spike of 9 in the centre of a 3×3 field: the centre's mean is
	// 9/9 = 1. A corner's neighborhood holds 4 in-bounds cells, so its
	// mean renormalizes to 9/4 = 2.25; an edge's 6 give 9/6 = 1.5.
	d, _ := grid.NewDense(3, 3)
	d.Set(1, 1, 9)
	for _, tc := range []struct {
		mean         float64
		below, above *grid.Bitmap
	}{
		{1, mk(t, "###", "###", "###"), mk(t, "###", "#.#", "###")},
		{2.25, mk(t, "#.#", "...", "#.#"), mk(t, "...", "...", "...")},
	} {
		below, above := weightedAt(t, d, tc.mean)
		if !reflect.DeepEqual(below, tc.below) || !reflect.DeepEqual(above, tc.above) {
			t.Errorf("mean %g: bars just below and just above set\n%s\nand\n%s\nwant\n%s\nand\n%s",
				tc.mean, below, above, tc.below, tc.above)
		}
	}
}

func TestLowPassWeightedRescuesBoundaryCell(t *testing.T) {
	// A cell just below the support threshold surrounded by strong cells
	// is rescued; an isolated weak cell is not.
	sup, _ := grid.NewDense(3, 5)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			sup.Set(r, c, 0.10)
		}
	}
	sup.Set(1, 1, 0.04) // weak interior cell among strong neighbors
	sup.Set(1, 4, 0.04) // isolated weak cell
	bm, err := LowPassWeighted(sup, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !bm.Get(1, 1) {
		t.Error("interior weak cell should be rescued by strong neighbors")
	}
	if bm.Get(1, 4) {
		t.Error("isolated weak cell should not survive")
	}
	if _, err := LowPassWeighted(sup, -1); err == nil {
		t.Error("negative threshold should error")
	}
}

// TestLowPassWeightedZeroBarKeepsEmptyCellsClear: at minimum support 0
// a cell with no support in its neighborhood stays clear; only cells
// the smoothing reaches are set.
func TestLowPassWeightedZeroBarKeepsEmptyCellsClear(t *testing.T) {
	sup, _ := grid.NewDense(4, 5)
	bm, err := LowPassWeighted(sup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := bm.PopCount(); n != 0 {
		t.Errorf("all-zero supports at minSupport 0 set %d cells, want 0", n)
	}
	sup.Set(0, 0, 0.2)
	if bm, err = LowPassWeighted(sup, 0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			if want := r <= 1 && c <= 1; bm.Get(r, c) != want {
				t.Errorf("cell (%d, %d) set = %v, want %v", r, c, bm.Get(r, c), want)
			}
		}
	}
}

func TestSmoothingImprovesClusterability(t *testing.T) {
	// The Figure 7 scenario: a ragged blob with holes becomes a compact
	// block after smoothing, reducing the number of set-cell "islands".
	bm := mk(t,
		"######",
		"##.###",
		"###.##",
		"######",
	)
	out, err := LowPass(bm, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out.PopCount() < bm.PopCount() {
		t.Errorf("smoothing lost cells: %d -> %d", bm.PopCount(), out.PopCount())
	}
	if !out.Get(1, 2) || !out.Get(2, 3) {
		t.Error("holes not filled")
	}
}
