package quant

import "arcs/internal/dataset"

// cube is a joint histogram over up to three attributes with 2D prefix
// sums, giving O(1) support for any (interval, interval, interval)
// conjunction. It is the fast path for the segmentation-shaped schema
// (two quantitative LHS attributes + one categorical criterion), where
// the naive per-candidate table scan is quadratic in the candidate
// count. Mine uses it automatically when the table has at most three
// attributes.
type cube struct {
	dims []int
	// pre[k] for the third-dimension slice k holds 2D prefix sums over
	// the first two dimensions: pre[k][(i+1)*(d1+1)+(j+1)] = count of
	// tuples with a0 <= i, a1 <= j, a2 == k. With fewer than three
	// attributes the missing dimensions have size 1.
	pre [][]int
}

// newCube builds the histogram from a binned table.
func newCube(tb *dataset.Table, bins []int) *cube {
	dims := []int{1, 1, 1}
	for i := 0; i < len(bins) && i < 3; i++ {
		dims[i] = bins[i]
	}
	d0, d1, d2 := dims[0], dims[1], dims[2]
	counts := make([][]int, d2)
	for k := range counts {
		counts[k] = make([]int, d0*d1)
	}
	at := func(row dataset.Tuple, attr, dim int) int {
		if attr >= len(row) {
			return 0
		}
		v := int(row[attr])
		if v < 0 {
			v = 0
		}
		if v >= dim {
			v = dim - 1
		}
		return v
	}
	for r := 0; r < tb.Len(); r++ {
		row := tb.Row(r)
		i := at(row, 0, d0)
		j := at(row, 1, d1)
		k := at(row, 2, d2)
		counts[k][i*d1+j]++
	}
	pre := make([][]int, d2)
	for k := 0; k < d2; k++ {
		p := make([]int, (d0+1)*(d1+1))
		for i := 0; i < d0; i++ {
			for j := 0; j < d1; j++ {
				p[(i+1)*(d1+1)+(j+1)] = counts[k][i*d1+j] +
					p[i*(d1+1)+(j+1)] + p[(i+1)*(d1+1)+j] - p[i*(d1+1)+j]
			}
		}
		pre[k] = p
	}
	return &cube{dims: dims, pre: pre}
}

// count returns the number of tuples matching the conjunction of
// intervals. Attributes not constrained default to their full range.
func (c *cube) count(ivs []Interval) int {
	lo := []int{0, 0, 0}
	hi := []int{c.dims[0] - 1, c.dims[1] - 1, c.dims[2] - 1}
	for _, iv := range ivs {
		if iv.Attr < 0 || iv.Attr > 2 {
			return 0
		}
		if iv.Lo > lo[iv.Attr] {
			lo[iv.Attr] = iv.Lo
		}
		if iv.Hi < hi[iv.Attr] {
			hi[iv.Attr] = iv.Hi
		}
	}
	for a := 0; a < 3; a++ {
		if lo[a] > hi[a] {
			return 0
		}
	}
	d1 := c.dims[1]
	total := 0
	for k := lo[2]; k <= hi[2]; k++ {
		p := c.pre[k]
		total += p[(hi[0]+1)*(d1+1)+(hi[1]+1)] -
			p[lo[0]*(d1+1)+(hi[1]+1)] -
			p[(hi[0]+1)*(d1+1)+lo[1]] +
			p[lo[0]*(d1+1)+lo[1]]
	}
	return total
}
