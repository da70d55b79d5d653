// Package bitop implements the BitOp clustering algorithm of paper
// §3.3.1 (Figure 6), the geometric heart of ARCS. BitOp enumerates
// candidate rectangular clusters by sweeping an accumulating bitwise-AND
// mask down the bitmap from every anchor row: while the mask is stable
// the runs of set bits extend downward; each time the mask shrinks, the
// runs of the prior mask are candidates of the accumulated height. The
// largest candidate is then selected greedily, its cells are cleared,
// and the process repeats until no sufficiently large cluster remains —
// the paper cites the classical result that this greedy set-cover style
// selection is near-optimal and runs in time linear in the size of the
// final cluster set.
//
// The selection is the paper's, and the enumeration does less work to
// reach it. Each anchor row caches the best candidate of its last sweep
// and the last row that sweep read, so a round re-sweeps only the
// anchors whose masks could have met a cleared cell and takes the best
// of the cached candidates. A sweep offers only the runs that a
// shrinking row cuts, and every run where it ends: a run the row keeps
// whole is offered later with more rows, and the tie-breaking order
// prefers the taller rectangle. That order is a strict total order on
// distinct rectangles, so each round picks the rectangle the full
// enumeration would.
//
// The implementation uses only word-wide AND/compare operations on the
// packed bitmap rows, mirroring the paper's claim that BitOp needs
// nothing beyond arithmetic registers, bitwise AND and shifts.
// Clustering one bitmap is sequential: the threshold search (package
// core) gets its parallelism by running whole probes, each with its own
// Cluster call, at once.
package bitop

import (
	"fmt"
	"sort"

	"arcs/internal/grid"
)

// Options controls cluster selection.
type Options struct {
	// MinArea is the smallest cluster (in cells) worth keeping. The
	// greedy loop terminates when the largest remaining candidate is
	// smaller, which realizes both the dynamic pruning of §3.5 and the
	// algorithm's termination condition. Values below 1 are treated
	// as 1.
	MinArea int
	// MaxClusters bounds the number of clusters returned; zero means
	// unbounded.
	MaxClusters int
	// Stats, when non-nil, accumulates the call's operation accounting
	// (word ops, candidates, sweeps, rounds). Nil costs nothing.
	Stats *Stats
}

// enumerator holds the scratch of a candidate enumeration, the three
// sweep masks, and the anchor table: one cached sweep per anchor row.
// Cluster makes one per call and reuses it across its greedy rounds. A
// round re-sweeps only the anchors the last clear could have changed
// and keeps no candidate list, so it allocates nothing however many
// candidates it sweeps past (guarded by TestBitOpRoundZeroAlloc).
type enumerator struct {
	mask, next, cut []uint64
	anchors         []anchor
	// n counts the candidates the enumerator has offered, and cand is
	// the best of those the current sweep offered, when found.
	n     int64
	cand  grid.Rect
	found bool
}

// anchor caches one anchor row's last sweep in int32 fields, 16 bytes a
// row: the best candidate it offered, as the candidate's columns and
// last row (c0 < 0 when it offered none), and last, the last row it
// read: the row that emptied its mask, or the bitmap's last row. A
// negative last marks the anchor for a fresh sweep.
type anchor struct {
	c0, c1, r1, last int32
}

func newEnumerator(bm *grid.Bitmap) *enumerator {
	e := &enumerator{
		mask:    make([]uint64, bm.WordsPerRow()),
		next:    make([]uint64, bm.WordsPerRow()),
		cut:     make([]uint64, bm.WordsPerRow()),
		anchors: make([]anchor, bm.Rows()),
	}
	for i := range e.anchors {
		e.anchors[i].last = -1
	}
	return e
}

// run sweeps every anchor row that has no valid cached sweep, then
// returns the best of all the anchors' cached candidates under less,
// and whether any anchor has one. Each sweep offers its anchor only the
// candidates that can win (see sweepAnchor), and less is a strict total
// order on distinct rectangles, so the pick is the rectangle pickBest
// would select from the full candidate list of bm.
func (e *enumerator) run(bm *grid.Bitmap, st *Stats) (best grid.Rect, ok bool) {
	rows, cols := bm.Rows(), bm.Cols()
	for top := range e.anchors {
		a := &e.anchors[top]
		if a.last < 0 {
			e.sweepAnchor(bm, top, rows, cols, st)
		}
		if a.c0 < 0 {
			continue
		}
		r := grid.Rect{R0: top, C0: int(a.c0), R1: int(a.r1), C1: int(a.c1)}
		if !ok || less(best, r) {
			best, ok = r, true
		}
	}
	return best, ok
}

// clear zeroes the pick's cells in bm and marks for a fresh sweep every
// anchor whose cached sweep the clear could change: one with top <= R1
// whose sweep read row R0 or a later one. An anchor above R0 whose own
// row has no bit in [C0, C1] keeps its cache too, since its masks are
// subsets of that row. A pick that covers no set cell can only come
// from a stale cache, and clearing it would change nothing, so the next
// round would pick it again: clear panics instead of looping.
func (e *enumerator) clear(bm *grid.Bitmap, pick grid.Rect) {
	if !bm.AnyInRect(pick) {
		panic(fmt.Sprintf("bitop: pick %v clears no set cell", pick))
	}
	bm.ClearRect(pick)
	for top := 0; top <= pick.R1; top++ {
		a := &e.anchors[top]
		if int(a.last) < pick.R0 {
			continue
		}
		if top < pick.R0 && !bm.AnyInRect(grid.Rect{R0: top, C0: pick.C0, R1: top, C1: pick.C1}) {
			continue
		}
		a.last = -1
	}
}

// sweepAnchor runs the downward mask sweep for one anchor row over the
// enumerator's scratch masks and caches its best candidate and last
// row. Each row below the anchor costs exactly one fused pass over the
// mask words: grid.AndRowInto computes the AND, the changed test and
// the empty test together. When a row shrinks the mask, only the runs
// it cuts are offered: a run the row keeps whole is still a maximal run
// of the shrunk mask, so it is offered later with the same anchor row
// and columns and a larger area, which less prefers. When the mask
// empties every run is cut, and at the end of a live sweep every run is
// offered. Operation counts accumulate in local integers and flush into
// st once per sweep, so the inner loop carries no atomic or branch cost
// beyond two plain additions.
func (e *enumerator) sweepAnchor(bm *grid.Bitmap, top, rows, cols int, st *Stats) {
	mask, next, cut := e.mask, e.next, e.cut
	wpr := int64(len(mask))
	andOps, cmpOps := int64(0), wpr // initial MaskEmpty scan
	offered := e.n
	e.found = false
	r := top // ends as the last row the sweep read
	bm.CopyRow(mask, top)
	if !grid.MaskEmpty(mask) {
		height := 1
		for r = top + 1; r < rows; r++ {
			changed, empty := bm.AndRowInto(next, mask, r)
			andOps += wpr
			cmpOps += wpr
			if empty {
				e.offer(mask, mask, cols, top, height)
				break
			}
			if changed {
				for i := range cut {
					cut[i] = mask[i] &^ next[i]
				}
				e.offer(mask, cut, cols, top, height)
			}
			// The shrunk mask is in next; swap rather than copy. When the
			// row changed nothing the two masks hold equal words, so the
			// swap is harmless.
			mask, next = next, mask
			height++
		}
		if r == rows {
			r--
			e.offer(mask, mask, cols, top, height)
		}
	}
	a := &e.anchors[top]
	a.c0, a.last = -1, int32(r)
	if e.found {
		a.c0, a.c1, a.r1 = int32(e.cand.C0), int32(e.cand.C1), int32(e.cand.R1)
	}
	st.addSweep(andOps, cmpOps, e.n-offered)
}

// offer offers every run of the mask that holds a bit of cut, as a
// rectangle of the given height under the anchor row, to the sweep's
// running best.
func (e *enumerator) offer(mask, cut []uint64, cols, top, height int) {
	grid.MaskRuns(mask, cut, cols, func(c0, c1 int) {
		r := grid.Rect{R0: top, C0: c0, R1: top + height - 1, C1: c1}
		if e.n++; !e.found || less(e.cand, r) {
			e.cand, e.found = r, true
		}
	})
}

// Cluster runs the full BitOp procedure on a copy of the bitmap: it
// repeatedly enumerates candidates, selects the largest (ties broken by
// lowest anchor row, then lowest column, then greatest height, keeping
// the result deterministic), clears the selected cells and iterates until
// no candidate of at least MinArea cells remains or MaxClusters is hit.
// After the first round, a round re-sweeps only the anchor rows the last
// clear could have changed. The input bitmap is not modified.
func Cluster(bm *grid.Bitmap, opts Options) []grid.Rect {
	minArea := opts.MinArea
	if minArea < 1 {
		minArea = 1
	}
	work := bm.Clone()
	enum := newEnumerator(work)
	var clusters []grid.Rect
	for work.Any() {
		if opts.MaxClusters > 0 && len(clusters) >= opts.MaxClusters {
			break
		}
		opts.Stats.addRound()
		best, ok := enum.run(work, opts.Stats)
		if !ok {
			break
		}
		if best.Area() < minArea {
			// §3.5: if the algorithm cannot locate a sufficiently large
			// cluster it terminates; remaining cells are noise/outliers.
			break
		}
		clusters = append(clusters, best)
		enum.clear(work, best)
	}
	return clusters
}

// pickBest selects the candidate with the largest area from a list,
// breaking ties deterministically, as Cluster's running best does.
func pickBest(cands []grid.Rect) grid.Rect {
	best := cands[0]
	for _, c := range cands[1:] {
		if less(best, c) {
			best = c
		}
	}
	return best
}

// less reports whether b is a strictly better pick than a.
func less(a, b grid.Rect) bool {
	if b.Area() != a.Area() {
		return b.Area() > a.Area()
	}
	if b.R0 != a.R0 {
		return b.R0 < a.R0
	}
	if b.C0 != a.C0 {
		return b.C0 < a.C0
	}
	return b.Height() > a.Height()
}

// SortRects orders rectangles for stable presentation: by anchor row,
// then column, then area descending.
func SortRects(rects []grid.Rect) {
	sort.Slice(rects, func(i, j int) bool {
		a, b := rects[i], rects[j]
		if a.R0 != b.R0 {
			return a.R0 < b.R0
		}
		if a.C0 != b.C0 {
			return a.C0 < b.C0
		}
		return a.Area() > b.Area()
	})
}

// ClusterNaive is a reference implementation of BitOp that stores the
// grid as a bool matrix and scans cell-by-cell instead of word-at-a-time.
// It produces identical clusters to Cluster and exists to (a) serve as a
// differential-testing oracle and (b) quantify the value of the packed
// representation in the ablation benchmarks.
func ClusterNaive(cells [][]bool, opts Options) []grid.Rect {
	minArea := opts.MinArea
	if minArea < 1 {
		minArea = 1
	}
	rows := len(cells)
	if rows == 0 {
		return nil
	}
	cols := len(cells[0])
	work := make([][]bool, rows)
	for i := range cells {
		work[i] = append([]bool(nil), cells[i]...)
	}
	any := func() bool {
		for _, row := range work {
			for _, v := range row {
				if v {
					return true
				}
			}
		}
		return false
	}
	var clusters []grid.Rect
	for any() {
		if opts.MaxClusters > 0 && len(clusters) >= opts.MaxClusters {
			break
		}
		cands := enumerateNaive(work, rows, cols)
		if len(cands) == 0 {
			break
		}
		best := pickBest(cands)
		if best.Area() < minArea {
			break
		}
		clusters = append(clusters, best)
		for r := best.R0; r <= best.R1; r++ {
			for c := best.C0; c <= best.C1; c++ {
				work[r][c] = false
			}
		}
	}
	return clusters
}

func enumerateNaive(cells [][]bool, rows, cols int) []grid.Rect {
	var out []grid.Rect
	mask := make([]bool, cols)
	next := make([]bool, cols)
	emit := func(m []bool, top, height int) {
		start := -1
		for c := 0; c < cols; c++ {
			if m[c] && start < 0 {
				start = c
			} else if !m[c] && start >= 0 {
				out = append(out, grid.Rect{R0: top, C0: start, R1: top + height - 1, C1: c - 1})
				start = -1
			}
		}
		if start >= 0 {
			out = append(out, grid.Rect{R0: top, C0: start, R1: top + height - 1, C1: cols - 1})
		}
	}
	empty := func(m []bool) bool {
		for _, v := range m {
			if v {
				return false
			}
		}
		return true
	}
	equal := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for top := 0; top < rows; top++ {
		copy(mask, cells[top])
		if empty(mask) {
			continue
		}
		height := 1
		alive := true
		for r := top + 1; r < rows; r++ {
			for c := 0; c < cols; c++ {
				next[c] = mask[c] && cells[r][c]
			}
			if !equal(next, mask) {
				emit(mask, top, height)
				if empty(next) {
					alive = false
					break
				}
			}
			copy(mask, next)
			height++
		}
		if alive {
			emit(mask, top, height)
		}
	}
	return out
}
