package verify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"arcs/internal/dataset"
	"arcs/internal/grid"
	"arcs/internal/obs"
	"arcs/internal/rules"
	"arcs/internal/stats"
)

// Index is a pre-binned verification sample: each tuple's (x, y) value is
// resolved once to a boundary slot, so measuring a candidate segmentation
// costs O(1) per tuple instead of O(|rules|).
//
// The slot arrays are built against the binner's boundary values
// (binning.Boundaries): slot s holds values v with B[s] <= v < B[s+1],
// found with the same float comparisons rules.Covers performs. Every
// clustered rule's value range is bounded by members of B (cluster bounds
// are taken verbatim from Binner.Bounds), so "rule covers tuple" in value
// space is exactly "tuple slot inside rule slot-rectangle", and a
// per-ruleset coverage bitmap over the slot grid answers each tuple with a
// single bit test, bit-for-bit equal to the rect scan. A rule with an edge
// that is not a boundary value is an error. Tuples outside the boundary
// range are uncovered by every boundary-aligned rule.
//
// The Index also holds the repeated k-out-of-n draws of §3.6, made once
// at construction, so every candidate is scored on the same draws.
//
// An Index is immutable after construction and safe for concurrent use.
type Index struct {
	xB, yB []float64 // sorted boundary values per axis
	xSlot  []int32   // per-tuple x slot, -1 when out of range
	ySlot  []int32   // per-tuple y slot, -1 when out of range
	crit   []int32   // per-tuple criterion category code
	// drawn[i] is the number of draws holding tuple i; rounds is the
	// number of draws.
	drawn  []uint8
	rounds int

	pool sync.Pool // *grid.Bitmap scratch masks, one slot grid each

	// rulesC counts the rules rasterized onto the slot grid; set once
	// via Observe before concurrent use.
	rulesC *obs.Counter
}

// Draws parameterizes the repeated k-out-of-n sampling of §3.6: Rounds
// independent draws of K distinct tuples each (K is clamped to the
// sample size), made with stats.SampleKofN from a source seeded by Seed.
type Draws struct {
	Rounds, K int
	Seed      int64
}

// Observe attaches the counter of rules rasterized onto the slot grid
// (nil disables it). Observe must be called before the Index is used
// concurrently.
func (ix *Index) Observe(rasterized *obs.Counter) { ix.rulesC = rasterized }

// NewIndex pre-bins every row of tb and makes the draws d over it.
// xBounds/yBounds are the sorted, deduplicated boundary values of the two
// LHS binners; xIdx/yIdx/critIdx are schema positions of the LHS and
// criterion attributes.
func NewIndex(tb *dataset.Table, xIdx, yIdx, critIdx int, xBounds, yBounds []float64, d Draws) (*Index, error) {
	for _, b := range [][]float64{xBounds, yBounds} {
		if len(b) < 2 {
			return nil, fmt.Errorf("verify: need at least 2 boundary values, got %d", len(b))
		}
		for i := 1; i < len(b); i++ {
			if !(b[i-1] < b[i]) {
				return nil, fmt.Errorf("verify: boundaries must be strictly increasing at %d: %v", i, b)
			}
		}
	}
	if d.Rounds < 1 || d.Rounds > math.MaxUint8 {
		return nil, fmt.Errorf("verify: draw rounds %d outside [1, %d]", d.Rounds, math.MaxUint8)
	}
	n := tb.Len()
	ix := &Index{
		xB: xBounds, yB: yBounds,
		xSlot:  make([]int32, n),
		ySlot:  make([]int32, n),
		crit:   make([]int32, n),
		drawn:  make([]uint8, n),
		rounds: d.Rounds,
	}
	for i := 0; i < n; i++ {
		row := tb.Row(i)
		ix.xSlot[i] = int32(slotOf(xBounds, row[xIdx]))
		ix.ySlot[i] = int32(slotOf(yBounds, row[yIdx]))
		ix.crit[i] = int32(row[critIdx])
	}
	rng := rand.New(rand.NewSource(d.Seed))
	for r := 0; r < d.Rounds; r++ {
		draw, err := stats.SampleKofN(rng, min(d.K, n), n)
		if err != nil {
			return nil, err
		}
		for _, i := range draw {
			ix.drawn[i]++ // at most Rounds: a draw holds distinct tuples
		}
	}
	rows, cols := len(yBounds)-1, len(xBounds)-1
	ix.pool.New = func() any {
		bm, err := grid.New(rows, cols)
		if err != nil { // unreachable: rows, cols >= 1 by validation above
			panic(err)
		}
		return bm
	}
	return ix, nil
}

// Len reports the number of indexed tuples.
func (ix *Index) Len() int { return len(ix.crit) }

// slotOf locates v in the sorted boundary array: the s with
// bounds[s] <= v < bounds[s+1], or -1 when v falls outside
// [bounds[0], bounds[len-1]). Same comparisons, same floats as
// rules.Covers — no epsilon, no recomputation.
func slotOf(bounds []float64, v float64) int {
	i := sort.SearchFloat64s(bounds, v) // smallest i with bounds[i] >= v
	if i < len(bounds) && bounds[i] == v {
		if i == len(bounds)-1 {
			return -1 // v sits on the top boundary: outside every half-open slot
		}
		return i
	}
	if i == 0 || i == len(bounds) {
		return -1 // below the bottom boundary or above the top one
	}
	return i - 1
}

// boundaryIndex reports the position of v in bounds, or ok=false when v
// is not a boundary value.
func boundaryIndex(bounds []float64, v float64) (int, bool) {
	i := sort.SearchFloat64s(bounds, v)
	if i < len(bounds) && bounds[i] == v {
		return i, true
	}
	return 0, false
}

// cover rasterizes the rule set onto a pooled slot-grid bitmap, which
// the caller returns to ix.pool. A rule edge that is not a boundary
// value is an error naming the edge.
func (ix *Index) cover(rs []rules.ClusteredRule) (*grid.Bitmap, error) {
	bm := ix.pool.Get().(*grid.Bitmap)
	bm.Reset()
	for _, r := range rs {
		xlo, ok1 := boundaryIndex(ix.xB, r.XLo)
		xhi, ok2 := boundaryIndex(ix.xB, r.XHi)
		ylo, ok3 := boundaryIndex(ix.yB, r.YLo)
		yhi, ok4 := boundaryIndex(ix.yB, r.YHi)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			ix.pool.Put(bm)
			return nil, fmt.Errorf("verify: rule %v: %s", r, offBoundary(r, ok1, ok2, ok3, ok4))
		}
		ix.rulesC.Inc()
		if xhi <= xlo || yhi <= ylo {
			// Empty or inverted value range: only a hand-built rule can
			// have one, since a mined rule spans at least one bin. Covers
			// is identically false, so the rule contributes nothing.
			continue
		}
		bm.FillRect(grid.Rect{R0: ylo, C0: xlo, R1: yhi - 1, C1: xhi - 1})
	}
	return bm, nil
}

// offBoundary names the rule edges whose values are absent from the
// index's boundary arrays. Only hand-built rules have such edges —
// mined clusters take their bounds verbatim from the binners.
func offBoundary(r rules.ClusteredRule, xlo, xhi, ylo, yhi bool) string {
	var bad []string
	if !xlo {
		bad = append(bad, fmt.Sprintf("x_lo=%g", r.XLo))
	}
	if !xhi {
		bad = append(bad, fmt.Sprintf("x_hi=%g", r.XHi))
	}
	if !ylo {
		bad = append(bad, fmt.Sprintf("y_lo=%g", r.YLo))
	}
	if !yhi {
		bad = append(bad, fmt.Sprintf("y_hi=%g", r.YHi))
	}
	return "not a binner boundary: " + strings.Join(bad, ", ")
}

// covered reports whether indexed tuple i lies in the coverage bitmap.
func (ix *Index) covered(bm *grid.Bitmap, i int) bool {
	xs, ys := ix.xSlot[i], ix.ySlot[i]
	return xs >= 0 && ys >= 0 && bm.Get(int(ys), int(xs))
}

// Measure counts errors of the segmentation over every indexed tuple,
// as the rect scan over the same table counts them.
func (ix *Index) Measure(rs []rules.ClusteredRule, segCode int) (ErrorCounts, error) {
	bm, err := ix.cover(rs)
	if err != nil {
		return ErrorCounts{}, err
	}
	defer ix.pool.Put(bm)
	var e ErrorCounts
	for i, c := range ix.crit {
		e.add(ix.covered(bm, i), int(c) == segCode)
	}
	return e, nil
}

// MeanErrors returns the segmentation's summed error (FP + FN) averaged
// over the index's draws. Each tuple's error counts once per draw
// holding it, so the integer sum is the sum of the per-draw errors and
// the mean is exact.
func (ix *Index) MeanErrors(rs []rules.ClusteredRule, segCode int) (float64, error) {
	bm, err := ix.cover(rs)
	if err != nil {
		return 0, err
	}
	defer ix.pool.Put(bm)
	sum := 0
	for i, w := range ix.drawn {
		if ix.covered(bm, i) != (int(ix.crit[i]) == segCode) {
			sum += int(w)
		}
	}
	return float64(sum) / float64(ix.rounds), nil
}
