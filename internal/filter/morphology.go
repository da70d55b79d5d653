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

// Erode returns the erosion of the bitmap by the 3×3 cross.
func Erode(bm *grid.Bitmap) *grid.Bitmap {
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
				if bm.Get(r, c) {
					out.Set(r, c)
				}
			}
		}
	}
	return out
}

// Dilate returns the dilation of the bitmap by the 3×3 cross.
func Dilate(bm *grid.Bitmap) *grid.Bitmap {
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

// Open erodes then dilates: isolated cells and one-cell-wide spurs
// disappear, solid clusters survive unchanged.
func Open(bm *grid.Bitmap) *grid.Bitmap { return Dilate(Erode(bm)) }

// Close dilates then erodes: single-cell holes and hairline gaps inside
// clusters are filled, the outline is preserved.
func Close(bm *grid.Bitmap) *grid.Bitmap { return Erode(Dilate(bm)) }
