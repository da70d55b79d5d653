// Package bitop implements the BitOp clustering algorithm of paper
// §3.3.1 (Figure 6), the geometric heart of ARCS. BitOp enumerates
// candidate rectangular clusters by sweeping an accumulating bitwise-AND
// mask down the bitmap from every anchor row: while the mask is stable
// the runs of set bits extend downward; each time the mask shrinks, the
// runs of the prior mask are emitted as rectangles of the accumulated
// height. The largest enumerated cluster is then selected greedily, its
// cells are cleared, and the process repeats until no sufficiently large
// cluster remains — the paper cites the classical result that this greedy
// set-cover style selection is near-optimal and runs in time linear in
// the size of the final cluster set.
//
// The implementation uses only word-wide AND/compare operations on the
// packed bitmap rows, mirroring the paper's claim that BitOp needs
// nothing beyond arithmetic registers, bitwise AND and shifts.
// Clustering one bitmap is sequential: the threshold search (package
// core) gets its parallelism by running whole probes, each with its own
// Cluster call, at once.
package bitop

import (
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

// enumerator holds the scratch of a candidate enumeration — the two
// sweep masks — and its result: how many candidates the sweep emitted
// and the best of them under less. Cluster reuses one across its greedy
// rounds, and a round keeps no candidate list, so a round allocates
// nothing however many candidates it sweeps past (guarded by
// TestBitOpRoundZeroAlloc).
type enumerator struct {
	mask, next []uint64
	n          int64
	best       grid.Rect
}

func newEnumerator(bm *grid.Bitmap) *enumerator {
	return &enumerator{
		mask: make([]uint64, bm.WordsPerRow()),
		next: make([]uint64, bm.WordsPerRow()),
	}
}

// run sweeps every anchor row of bm, leaving the candidate count in e.n
// and, when it is positive, the best candidate in e.best. Candidates are
// compared in emission order by pickBest's rule, so e.best is the
// rectangle pickBest would select from the full candidate list.
func (e *enumerator) run(bm *grid.Bitmap, st *Stats) {
	e.n = 0
	rows, cols := bm.Rows(), bm.Cols()
	for top := 0; top < rows; top++ {
		e.sweepAnchor(bm, top, rows, cols, st)
	}
}

// sweepAnchor runs the downward mask sweep for one anchor row over the
// enumerator's scratch masks. Each row below the anchor costs exactly
// one fused pass over the mask words: grid.AndRowInto computes the AND,
// the changed test and the empty test together, where a copy, an AND,
// an equality test and an emptiness test would walk the words up to
// four times. Operation counts accumulate in local integers and flush
// into st once per sweep, so the inner loop carries no atomic or branch
// cost beyond two plain additions.
func (e *enumerator) sweepAnchor(bm *grid.Bitmap, top, rows, cols int, st *Stats) {
	mask, next := e.mask, e.next
	wpr := int64(len(mask))
	andOps, cmpOps := int64(0), wpr // initial MaskEmpty scan
	bm.CopyRow(mask, top)
	if grid.MaskEmpty(mask) {
		st.addSweep(andOps, cmpOps, 0)
		return
	}
	emitted := e.n
	height := 1
	alive := true
	for r := top + 1; r < rows; r++ {
		changed, empty := bm.AndRowInto(next, mask, r)
		andOps += wpr
		cmpOps += wpr
		if changed {
			e.emitRuns(mask, cols, top, height)
			if empty {
				alive = false
				break
			}
		}
		// The shrunk mask is in next; swap rather than copy. When the
		// row changed nothing the two masks hold equal words, so the
		// swap is harmless.
		mask, next = next, mask
		height++
	}
	if alive {
		e.emitRuns(mask, cols, top, height)
	}
	st.addSweep(andOps, cmpOps, e.n-emitted)
}

// emitRuns offers every run of the mask, as a rectangle of the given
// height under the anchor row, to the running best.
func (e *enumerator) emitRuns(mask []uint64, cols, top, height int) {
	grid.MaskRuns(mask, cols, func(c0, c1 int) {
		r := grid.Rect{R0: top, C0: c0, R1: top + height - 1, C1: c1}
		if e.n++; e.n == 1 || less(e.best, r) {
			e.best = r
		}
	})
}

// Cluster runs the full BitOp procedure on a copy of the bitmap: it
// repeatedly enumerates candidates, selects the largest (ties broken by
// lowest anchor row, then lowest column, then greatest height, keeping
// the result deterministic), clears the selected cells and iterates until
// no candidate of at least MinArea cells remains or MaxClusters is hit.
// The input bitmap is not modified.
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
		enum.run(work, opts.Stats)
		if enum.n == 0 {
			break
		}
		best := enum.best
		if best.Area() < minArea {
			// §3.5: if the algorithm cannot locate a sufficiently large
			// cluster it terminates; remaining cells are noise/outliers.
			break
		}
		clusters = append(clusters, best)
		work.ClearRect(best)
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
