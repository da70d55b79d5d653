// Package filter implements the grid-smoothing preprocessing step of
// paper §3.4: a two-dimensional low-pass filter, borrowed from image
// processing, that replaces each cell with the average of its adjoining
// neighbors. Smoothing fills the small "holes" and jagged edges that
// inhibit BitOp from finding large complete clusters, and suppresses
// isolated noise cells.
//
// Two variants are provided, matching the paper: the binary filter used
// in the main experiments, and the support-weighted filter of §5 that
// averages rule support values instead of 0/1 presence over the same
// 3×3 box.
package filter

import (
	"fmt"

	"arcs/internal/grid"
)

// LowPass applies the 3×3 binary low-pass filter: each output cell is set
// when the mean of its in-bounds 3×3 neighborhood (the cell included) is
// at least threshold, that is when float64(set) >= threshold*float64(n)
// for its set cells among n in-bounds ones. A threshold of 0.5 both
// fills single-cell holes in dense regions and erases isolated cells;
// thresholds <= 0, > 1 or NaN are rejected. The input is not modified.
//
// The filter works one row at a time on the packed words: the three
// rows' column sums are kept bit-sliced, two bits per column, the left
// and right neighbours' sums come from shifts carried between words, and
// the window count of every column of a word is compared at once with
// the fewest set cells the bar admits. The first and last columns have
// fewer in-bounds neighbours and are tested on their own.
func LowPass(bm *grid.Bitmap, threshold float64) (*grid.Bitmap, error) {
	if !(threshold > 0 && threshold <= 1) {
		return nil, fmt.Errorf("filter: threshold %g outside (0, 1]", threshold)
	}
	rows, cols := bm.Rows(), bm.Cols()
	out, err := grid.New(rows, cols)
	if err != nil {
		return nil, err
	}
	// need[n] is the least k with float64(k) >= threshold*float64(n).
	// The test is monotone in k, so "set >= need[n]" is exactly it; and
	// threshold <= 1 bounds need[n] by n.
	var need [10]int
	for n := 1; n <= 9; n++ {
		for float64(need[n]) < threshold*float64(n) {
			need[n]++
		}
	}
	wpr := bm.WordsPerRow()
	buf := make([]uint64, 4*wpr)
	zero, v0, v1, dst := buf[:wpr], buf[wpr:2*wpr], buf[2*wpr:3*wpr], buf[3*wpr:]
	for r := 0; r < rows; r++ {
		up, mid, down, inRows := zero, bm.Row(r), zero, 1
		if r > 0 {
			up, inRows = bm.Row(r-1), inRows+1
		}
		if r+1 < rows {
			down, inRows = bm.Row(r+1), inRows+1
		}
		// v1v0 is each column's count of set cells in the three rows.
		for i, m := range mid {
			s := up[i] ^ m
			v0[i] = s ^ down[i]
			v1[i] = up[i]&m | s&down[i]
		}
		k := need[3*inRows]
		for i := range dst {
			l0, r0 := sides(v0, i)
			l1, r1 := sides(v1, i)
			// Add the left, middle and right 2-bit sums into the 4-bit
			// window count b3b2b1b0.
			x, y := l0^v0[i], l1^v1[i]
			c0 := l0&v0[i] | x&r0 // carry into weight 2
			a0 := y ^ r1
			a1 := l1&v1[i] | y&r1 // carry into weight 4
			b1 := a0 ^ c0
			c1 := a0 & c0
			dst[i] = atLeast(x^r0, b1, a1^c1, a1&c1, k)
		}
		// The first and last columns have fewer in-bounds neighbours than
		// the bar k assumed: test them again with their own n.
		for _, c := range [2]int{0, cols - 1} {
			inCols := 3
			if c == 0 {
				inCols--
			}
			if c == cols-1 {
				inCols--
			}
			set := colSum(v0, v1, c-1, cols) + colSum(v0, v1, c, cols) + colSum(v0, v1, c+1, cols)
			w, bit := c/64, uint64(1)<<uint(c%64)
			if set >= need[inRows*inCols] {
				dst[w] |= bit
			} else {
				dst[w] &^= bit
			}
		}
		out.SetRow(r, dst)
	}
	return out, nil
}

// sides returns the left and right neighbours of word i of a packed
// row: bit j of left holds the row's column 64i+j-1, bit j of right its
// column 64i+j+1. A neighbour outside the row reads as clear.
func sides(row []uint64, i int) (left, right uint64) {
	left, right = row[i]<<1, row[i]>>1
	if i > 0 {
		left |= row[i-1] >> 63
	}
	if i+1 < len(row) {
		right |= row[i+1] << 63
	}
	return left, right
}

// atLeast returns the lanes whose 4-bit count b3b2b1b0 is at least k,
// for 0 <= k <= 15, comparing from the top bit down.
func atLeast(b0, b1, b2, b3 uint64, k int) uint64 {
	gt, eq := uint64(0), ^uint64(0)
	for i, b := range [4]uint64{b3, b2, b1, b0} {
		if k>>uint(3-i)&1 != 0 {
			eq &= b
		} else {
			gt |= eq & b
			eq &^= b
		}
	}
	return gt | eq
}

// colSum returns column c's bit-sliced count v1v0, or 0 outside the
// row's cols columns.
func colSum(v0, v1 []uint64, c, cols int) int {
	if c < 0 || c >= cols {
		return 0
	}
	w, s := c/64, uint(c%64)
	return int(v0[w]>>s&1) + 2*int(v1[w]>>s&1)
}

// LowPassWeighted applies the support-weighted smoothing of §5: the 3×3
// box filter runs over rule support values (a Dense grid), and each
// smoothed value is thresholded at minSupport as it is computed, so the
// output bitmap is the only grid allocated. Cells whose smoothed
// support is positive and reaches the mining threshold survive; this
// lets strong neighbors rescue boundary cells that individually just
// missed the support cut, while isolated weak cells fade out. A cell
// with no support nearby never survives, even at minSupport 0.
//
// Each in-bounds neighbor weighs 1/9. Out-of-bounds neighbors are left
// out and the mean is renormalized over the in-bounds weights, scaled
// by the nine weights' floating-point sum, so a constant field stays
// constant up to its edges. The input is not modified.
func LowPassWeighted(supports *grid.Dense, minSupport float64) (*grid.Bitmap, error) {
	if minSupport < 0 {
		return nil, fmt.Errorf("filter: negative support threshold %g", minSupport)
	}
	const w = 1.0 / 9
	var wsum float64
	for i := 0; i < 9; i++ {
		wsum += w
	}
	rows, cols := supports.Rows(), supports.Cols()
	out, err := grid.New(rows, cols)
	if err != nil {
		return nil, err
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// The cell itself is always in bounds, so used is positive.
			var acc, used float64
			for rr := r - 1; rr <= r+1; rr++ {
				for cc := c - 1; cc <= c+1; cc++ {
					if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
						continue
					}
					acc += w * supports.At(rr, cc)
					used += w
				}
			}
			if v := acc * wsum / used; v > 0 && v >= minSupport {
				out.Set(r, c)
			}
		}
	}
	return out, nil
}
