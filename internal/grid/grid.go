// Package grid provides the two-dimensional bitmap the BitOp algorithm
// operates on (paper §3.2–3.3): rows of word-packed bits supporting the
// bitwise AND and shift operations BitOp is built from, plus the
// axis-aligned rectangle type shared by the clustering packages and a
// dense float grid used by support-weighted smoothing.
//
// Convention: columns index the x attribute's bins, rows index the y
// attribute's bins. Cell (row r, col c) is set when the association rule
// X=c ∧ Y=r ⇒ Gk was mined.
package grid

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitmap is a rows × cols bit matrix with word-packed rows.
type Bitmap struct {
	rows, cols int
	wpr        int // words per row
	words      []uint64
}

// New allocates an all-zero bitmap.
func New(rows, cols int) (*Bitmap, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: invalid dimensions %d×%d", rows, cols)
	}
	wpr := wordsPerRow(cols)
	return &Bitmap{rows: rows, cols: cols, wpr: wpr, words: make([]uint64, rows*wpr)}, nil
}

// wordsPerRow is the packed width of a row of cols columns.
func wordsPerRow(cols int) int { return (cols + wordBits - 1) / wordBits }

// Rows reports the number of rows.
func (b *Bitmap) Rows() int { return b.rows }

// Cols reports the number of columns.
func (b *Bitmap) Cols() int { return b.cols }

func (b *Bitmap) check(r, c int) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("grid: cell (%d, %d) outside %d×%d bitmap", r, c, b.rows, b.cols))
	}
}

// Set turns on cell (r, c).
func (b *Bitmap) Set(r, c int) {
	b.check(r, c)
	b.words[r*b.wpr+c/wordBits] |= 1 << uint(c%wordBits)
}

// CellBit returns the position of cell (r, c) among the packed bits of a
// bitmap with cols columns, row r's words first: the address SetBit
// takes. BitCell inverts it.
func CellBit(cols, r, c int) int { return r*wordsPerRow(cols)*wordBits + c }

// BitCell returns the cell (r, c) at position pos of a bitmap with cols
// columns.
func BitCell(cols, pos int) (r, c int) {
	rowBits := wordsPerRow(cols) * wordBits
	return pos / rowBits, pos % rowBits
}

// SetBit turns on the cell at position pos, which CellBit gave for this
// bitmap's column count, with one word OR: the bulk writer that sets a
// threshold probe's rule grid from the cells of a rule index, with no
// per-cell range check beyond the word slice's.
func (b *Bitmap) SetBit(pos uint32) {
	b.words[pos/wordBits] |= 1 << (pos % wordBits)
}

// Clear turns off cell (r, c).
func (b *Bitmap) Clear(r, c int) {
	b.check(r, c)
	b.words[r*b.wpr+c/wordBits] &^= 1 << uint(c%wordBits)
}

// Get reports cell (r, c).
func (b *Bitmap) Get(r, c int) bool {
	b.check(r, c)
	return b.words[r*b.wpr+c/wordBits]&(1<<uint(c%wordBits)) != 0
}

// Row returns the packed words of row r. The slice aliases the bitmap;
// callers must not modify it.
func (b *Bitmap) Row(r int) []uint64 {
	return b.words[r*b.wpr : (r+1)*b.wpr]
}

// SetRow overwrites row r with the packed words of src, which must have
// length WordsPerRow. Bits of src past the last column are dropped, so
// a word-level writer need not mask its last word.
func (b *Bitmap) SetRow(r int, src []uint64) {
	row := b.words[r*b.wpr : (r+1)*b.wpr]
	copy(row, src)
	row[b.wpr-1] &= ^uint64(0) >> uint(b.wpr*wordBits-b.cols)
}

// CopyRow copies row r into dst, which must have length WordsPerRow.
func (b *Bitmap) CopyRow(dst []uint64, r int) {
	copy(dst, b.Row(r))
}

// AndRowInto computes dst = src AND row r in one fused pass, reporting
// whether dst differs from src and whether dst came out all-zero. The
// three answers the BitOp sweep needs per row (the ANDed mask, did it
// shrink, is it dead) cost one word scan instead of separate copy,
// AND, equality and emptiness scans; the change and emptiness signals
// accumulate in branch-free OR registers. dst and src must both have
// length WordsPerRow and may not alias.
func (b *Bitmap) AndRowInto(dst, src []uint64, r int) (changed, empty bool) {
	row := b.words[r*b.wpr : (r+1)*b.wpr]
	var diff, any uint64
	for i, s := range src {
		v := s & row[i]
		dst[i] = v
		diff |= s ^ v
		any |= v
	}
	return diff != 0, any == 0
}

// WordsPerRow reports the packed row width in words.
func (b *Bitmap) WordsPerRow() int { return b.wpr }

// PopCount reports the number of set cells.
func (b *Bitmap) PopCount() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any cell is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every cell, keeping the allocation. It lets callers that
// build many short-lived masks of the same geometry (the verification
// index's coverage bitmaps) recycle bitmaps instead of reallocating.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	c := *b
	c.words = append([]uint64(nil), b.words...)
	return &c
}

// rectMasks validates the rectangle and returns its word-column range
// plus the partial masks of the first and last word. When the rectangle
// spans a single word column both masks apply to it (AND them).
func (b *Bitmap) rectMasks(rect Rect) (w0, w1 int, first, last uint64) {
	b.check(rect.R0, rect.C0)
	b.check(rect.R1, rect.C1)
	w0, w1 = rect.C0/wordBits, rect.C1/wordBits
	first = ^uint64(0) << uint(rect.C0%wordBits)
	last = ^uint64(0) >> uint(wordBits-1-rect.C1%wordBits)
	return w0, w1, first, last
}

// AnyInRect reports whether any cell of the inclusive rectangle is set,
// testing whole words as ClearRect clears them.
func (b *Bitmap) AnyInRect(rect Rect) bool {
	w0, w1, first, last := b.rectMasks(rect)
	if w0 == w1 {
		first &= last
	}
	for r := rect.R0; r <= rect.R1; r++ {
		row := b.words[r*b.wpr : (r+1)*b.wpr]
		if row[w0]&first != 0 || w0 != w1 && row[w1]&last != 0 {
			return true
		}
		for _, w := range row[w0+1 : max(w0+1, w1)] {
			if w != 0 {
				return true
			}
		}
	}
	return false
}

// ClearRect zeroes the inclusive rectangle, whole words at a time:
// interior word columns are assigned, the two edge columns are masked.
// This is the per-greedy-round clear of BitOp, so its cost scales with
// the rectangle's word span rather than its cell count.
func (b *Bitmap) ClearRect(rect Rect) {
	w0, w1, first, last := b.rectMasks(rect)
	for r := rect.R0; r <= rect.R1; r++ {
		row := b.words[r*b.wpr : (r+1)*b.wpr]
		if w0 == w1 {
			row[w0] &^= first & last
			continue
		}
		row[w0] &^= first
		for wi := w0 + 1; wi < w1; wi++ {
			row[wi] = 0
		}
		row[w1] &^= last
	}
}

// FillRect sets the inclusive rectangle, whole words at a time (the
// word-level dual of ClearRect).
func (b *Bitmap) FillRect(rect Rect) {
	w0, w1, first, last := b.rectMasks(rect)
	for r := rect.R0; r <= rect.R1; r++ {
		row := b.words[r*b.wpr : (r+1)*b.wpr]
		if w0 == w1 {
			row[w0] |= first & last
			continue
		}
		row[w0] |= first
		for wi := w0 + 1; wi < w1; wi++ {
			row[wi] = ^uint64(0)
		}
		row[w1] |= last
	}
}

// String renders the bitmap as ASCII art, row 0 at the bottom (matching
// the paper's figures where the y attribute grows upward): '#' for set
// cells, '.' for clear.
func (b *Bitmap) String() string {
	var sb strings.Builder
	for r := b.rows - 1; r >= 0; r-- {
		for c := 0; c < b.cols; c++ {
			if b.Get(r, c) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MaskEmpty reports whether a packed row mask has no set bits.
func MaskEmpty(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// MaskRuns invokes fn for every maximal run of consecutive set bits in a
// packed row mask of the given logical width that holds a set bit of
// cut, passing the inclusive column range [c0, c1], in column order.
// Passing the mask as its own cut visits every run. A run is found from
// its first bit in mask AND cut and extended both ways with leading- and
// trailing-zero scans on whole words, so the cost scales with the words
// scanned and the runs visited, not the column count. Bits past the
// last column are ignored.
func MaskRuns(mask, cut []uint64, cols int, fn func(c0, c1 int)) {
	for c := nextCut(mask, cut, 0, cols); c < cols; {
		c0, c1 := runStart(mask, c), runEnd(mask, c, cols)
		fn(c0, c1)
		if c1+1 >= cols {
			return
		}
		c = nextCut(mask, cut, c1+1, cols)
	}
}

// nextCut returns the first column at or after from, and below cols,
// whose bit is set in both mask and cut, or cols when there is none.
func nextCut(mask, cut []uint64, from, cols int) int {
	wi := from / wordBits
	w := mask[wi] & cut[wi] & (^uint64(0) << uint(from%wordBits))
	for w == 0 {
		if wi++; wi*wordBits >= cols {
			return cols
		}
		w = mask[wi] & cut[wi]
	}
	return min(wi*wordBits+bits.TrailingZeros64(w), cols)
}

// runStart returns the first column of the run of mask that holds the
// set column c: one past the highest clear bit below c.
func runStart(mask []uint64, c int) int {
	wi := c / wordBits
	z := ^mask[wi] & (uint64(1)<<uint(c%wordBits) - 1)
	for z == 0 {
		if wi == 0 {
			return 0
		}
		wi--
		z = ^mask[wi]
	}
	return (wi+1)*wordBits - bits.LeadingZeros64(z)
}

// runEnd returns the last column, below cols, of the run of mask that
// holds the set column c: one before the lowest clear bit above c.
func runEnd(mask []uint64, c, cols int) int {
	wi := c / wordBits
	z := ^mask[wi] & (^uint64(0) << uint(c%wordBits))
	for z == 0 {
		if wi++; wi*wordBits >= cols {
			return cols - 1
		}
		z = ^mask[wi]
	}
	return min(wi*wordBits+bits.TrailingZeros64(z), cols) - 1
}

// Rect is an axis-aligned rectangle of grid cells with inclusive bounds.
type Rect struct {
	R0, C0 int // top-left (lowest row/col indices)
	R1, C1 int // bottom-right (highest row/col indices)
}

// Area reports the number of cells the rectangle covers.
func (r Rect) Area() int { return (r.R1 - r.R0 + 1) * (r.C1 - r.C0 + 1) }

// Width reports the number of columns spanned.
func (r Rect) Width() int { return r.C1 - r.C0 + 1 }

// Height reports the number of rows spanned.
func (r Rect) Height() int { return r.R1 - r.R0 + 1 }

// Contains reports whether cell (row, col) lies inside the rectangle.
func (r Rect) Contains(row, col int) bool {
	return r.R0 <= row && row <= r.R1 && r.C0 <= col && col <= r.C1
}

// Intersects reports whether two rectangles share any cell.
func (r Rect) Intersects(o Rect) bool {
	return r.R0 <= o.R1 && o.R0 <= r.R1 && r.C0 <= o.C1 && o.C0 <= r.C1
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	out := r
	if o.R0 < out.R0 {
		out.R0 = o.R0
	}
	if o.C0 < out.C0 {
		out.C0 = o.C0
	}
	if o.R1 > out.R1 {
		out.R1 = o.R1
	}
	if o.C1 > out.C1 {
		out.C1 = o.C1
	}
	return out
}

// String renders the rectangle for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("rows %d-%d, cols %d-%d", r.R0, r.R1, r.C0, r.C1)
}

// Dense is a rows × cols float64 grid used by the support-weighted
// smoothing filter, which operates on rule support values rather than
// binary presence (paper §5).
type Dense struct {
	rows, cols int
	vals       []float64
}

// NewDense allocates a zero-valued dense grid.
func NewDense(rows, cols int) (*Dense, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: invalid dimensions %d×%d", rows, cols)
	}
	return &Dense{rows: rows, cols: cols, vals: make([]float64, rows*cols)}, nil
}

// Rows reports the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Cols reports the number of columns.
func (d *Dense) Cols() int { return d.cols }

// At returns cell (r, c).
func (d *Dense) At(r, c int) float64 { return d.vals[r*d.cols+c] }

// Set assigns cell (r, c).
func (d *Dense) Set(r, c int, v float64) { d.vals[r*d.cols+c] = v }
