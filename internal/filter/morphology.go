package filter

import "arcs/internal/grid"

// Morphological operators on rule grids — the classical image-processing
// toolbox the paper's §5 points at for detecting cluster edges and
// corners. Erosion/dilation use the 3×3 cross (von Neumann) structuring
// element: a cell survives erosion when it and its four axis neighbors
// are set (edges treat out-of-bounds as set, so clusters touching the
// border are not eaten), and dilation sets every neighbor of a set cell.
//
// Opening (erode then dilate) removes isolated cells and thin spurs
// without growing the remaining clusters; closing (dilate then erode)
// fills pinholes and hairline gaps without shrinking them. Both are
// idempotent, which makes them predictable preprocessing steps compared
// to repeated low-pass smoothing.

// Erode returns the erosion of the bitmap by the 3×3 cross: each row is
// the AND of itself, the rows above and below, and itself shifted one
// column each way, with out-of-bounds neighbours set.
func Erode(bm *grid.Bitmap) *grid.Bitmap {
	return cross(bm, ^uint64(0), func(m, up, down, left, right uint64) uint64 {
		return m & up & down & left & right
	})
}

// Dilate returns the dilation of the bitmap by the 3×3 cross: the OR of
// the same five rows, with out-of-bounds neighbours clear.
func Dilate(bm *grid.Bitmap) *grid.Bitmap {
	return cross(bm, 0, func(m, up, down, left, right uint64) uint64 {
		return m | up | down | left | right
	})
}

// cross combines every word of the bitmap with its four axis neighbours'
// words by op; a neighbour outside the bitmap reads as the matching bit
// of outside.
func cross(bm *grid.Bitmap, outside uint64, op func(m, up, down, left, right uint64) uint64) *grid.Bitmap {
	rows, cols, wpr := bm.Rows(), bm.Cols(), bm.WordsPerRow()
	out, _ := grid.New(rows, cols)
	buf := make([]uint64, 2*wpr)
	pad, dst := buf[:wpr], buf[wpr:]
	for i := range pad {
		pad[i] = outside
	}
	for r := 0; r < rows; r++ {
		up, mid, down := pad, bm.Row(r), pad
		if r > 0 {
			up = bm.Row(r - 1)
		}
		if r+1 < rows {
			down = bm.Row(r + 1)
		}
		for i, m := range mid {
			left, right := sides(mid, i, cols, outside)
			dst[i] = op(m, up[i], down[i], left, right)
		}
		out.SetRow(r, dst)
	}
	return out
}

// Open erodes then dilates: isolated cells and one-cell-wide spurs
// disappear, solid clusters survive unchanged.
func Open(bm *grid.Bitmap) *grid.Bitmap { return Dilate(Erode(bm)) }

// Close dilates then erodes: single-cell holes and hairline gaps inside
// clusters are filled, the outline is preserved.
func Close(bm *grid.Bitmap) *grid.Bitmap { return Erode(Dilate(bm)) }
