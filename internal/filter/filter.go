// Package filter implements the grid-smoothing preprocessing step of
// paper §3.4: a two-dimensional low-pass filter, borrowed from image
// processing, that replaces each cell with the average of its adjoining
// neighbors. Smoothing fills the small "holes" and jagged edges that
// inhibit BitOp from finding large complete clusters, and suppresses
// isolated noise cells.
//
// Two variants are provided, matching the paper: the binary filter used
// in the main experiments, and the support-weighted filter of §5 that
// averages rule support values instead of 0/1 presence by convolving
// them with a 3×3 box kernel. Morphological opening and closing
// (morphology.go) are a third smoothing mode.
package filter

import (
	"fmt"

	"arcs/internal/grid"
)

// LowPass applies the 3×3 binary low-pass filter: each output cell is set
// when the mean of its in-bounds 3×3 neighborhood (the cell included) is
// at least threshold. A threshold of 0.5 both fills single-cell holes in
// dense regions and erases isolated cells; thresholds <= 0 or > 1 are
// rejected. The input is not modified.
func LowPass(bm *grid.Bitmap, threshold float64) (*grid.Bitmap, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("filter: threshold %g outside (0, 1]", threshold)
	}
	rows, cols := bm.Rows(), bm.Cols()
	out, err := grid.New(rows, cols)
	if err != nil {
		return nil, err
	}
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
	return out, nil
}

// Kernel is a square convolution kernel of odd size.
type Kernel struct {
	Size    int // odd edge length
	Weights []float64
}

func (k Kernel) validate() error {
	if k.Size <= 0 || k.Size%2 == 0 {
		return fmt.Errorf("filter: kernel size must be odd and positive, got %d", k.Size)
	}
	if len(k.Weights) != k.Size*k.Size {
		return fmt.Errorf("filter: kernel has %d weights, want %d", len(k.Weights), k.Size*k.Size)
	}
	return nil
}

// Box3 is the 3×3 box (uniform average) kernel — the paper's low-pass
// filter in kernel form.
func Box3() Kernel {
	w := make([]float64, 9)
	for i := range w {
		w[i] = 1.0 / 9
	}
	return Kernel{Size: 3, Weights: w}
}

// Convolve applies a smoothing kernel to a dense grid. Out-of-bounds
// neighbors are left out and the result is renormalized over the
// in-bounds kernel weights, so a constant field stays constant up to its
// edges; the weights must therefore not sum to zero. The input is not
// modified.
func Convolve(d *grid.Dense, k Kernel) (*grid.Dense, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	var wsum float64
	for _, w := range k.Weights {
		wsum += w
	}
	rows, cols := d.Rows(), d.Cols()
	out, err := grid.NewDense(rows, cols)
	if err != nil {
		return nil, err
	}
	half := k.Size / 2
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var acc, used float64
			for dr := -half; dr <= half; dr++ {
				for dc := -half; dc <= half; dc++ {
					rr, cc := r+dr, c+dc
					w := k.Weights[(dr+half)*k.Size+(dc+half)]
					if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
						continue
					}
					acc += w * d.At(rr, cc)
					used += w
				}
			}
			if used != 0 {
				acc = acc * wsum / used
			}
			out.Set(r, c, acc)
		}
	}
	return out, nil
}

// LowPassWeighted applies the support-weighted smoothing of §5: the 3×3
// box filter runs over rule support values (a Dense grid) and the result
// is thresholded back to a bitmap at minSupport. Cells whose smoothed
// support is positive and reaches the mining threshold survive; this
// lets strong neighbors rescue boundary cells that individually just
// missed the support cut, while isolated weak cells fade out. A cell
// with no support nearby never survives, even at minSupport 0.
func LowPassWeighted(supports *grid.Dense, minSupport float64) (*grid.Bitmap, error) {
	if minSupport < 0 {
		return nil, fmt.Errorf("filter: negative support threshold %g", minSupport)
	}
	sm, err := Convolve(supports, Box3())
	if err != nil {
		return nil, err
	}
	return sm.Threshold(minSupport), nil
}
