package verify

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"arcs/internal/cancelcheck"
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
// found with the same float comparisons rules.Covers performs. Because
// every clustered rule's value range is bounded by members of B (cluster
// bounds are taken verbatim from Binner.Bounds), "rule covers tuple" in
// value space is exactly "tuple slot inside rule slot-rectangle" — so a
// per-ruleset coverage bitmap over the slot grid answers Covered with a
// single bit test, bit-for-bit equal to the rect scan. Rules whose edges
// are not boundary values (possible only for hand-built rules, never for
// mined clusters) fall back to the rect scan; tuples outside the boundary
// range are provably uncovered by every boundary-aligned rule.
//
// An Index is immutable after construction and safe for concurrent use.
type Index struct {
	tb         *dataset.Table
	xIdx, yIdx int
	xB, yB     []float64 // sorted boundary values per axis
	xSlot      []int32   // per-tuple x slot, -1 when out of range
	ySlot      []int32   // per-tuple y slot, -1 when out of range
	crit       []int32   // per-tuple criterion category code

	pool sync.Pool // *grid.Bitmap scratch masks, one slot grid each

	// Observability hooks, set once via Observe before concurrent use.
	// fastC/fallC count rules rasterized on the O(1) slot-grid fast path
	// versus degraded to the O(rules) scan fallback; onFallback, when
	// non-nil, receives each fallback rule with the reason its bounds
	// were not boundary-aligned.
	fastC, fallC *obs.Counter
	onFallback   func(Fallback)
}

// Fallback describes one rule that could not use the slot-grid fast
// path and forces the per-tuple rect-scan fallback: the rule, and which
// of its edges are not binner boundary values.
type Fallback struct {
	Rule   rules.ClusteredRule
	Reason string
}

// Observe attaches observability hooks: per-rule fast-path/fallback
// counters (either may be nil) and an optional callback invoked for
// every fallback rule with the reason it was non-boundary-aligned.
// Observe must be called before the Index is used concurrently.
func (ix *Index) Observe(fast, fallback *obs.Counter, onFallback func(Fallback)) {
	ix.fastC, ix.fallC, ix.onFallback = fast, fallback, onFallback
}

// NewIndex pre-bins every row of tb. xBounds/yBounds are the sorted,
// deduplicated boundary values of the two LHS binners; xIdx/yIdx/critIdx
// are schema positions of the LHS and criterion attributes.
func NewIndex(tb *dataset.Table, xIdx, yIdx, critIdx int, xBounds, yBounds []float64) (*Index, error) {
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
	n := tb.Len()
	ix := &Index{
		tb:   tb,
		xIdx: xIdx, yIdx: yIdx,
		xB: xBounds, yB: yBounds,
		xSlot: make([]int32, n),
		ySlot: make([]int32, n),
		crit:  make([]int32, n),
	}
	for i := 0; i < n; i++ {
		row := tb.Row(i)
		ix.xSlot[i] = int32(slotOf(xBounds, row[xIdx]))
		ix.ySlot[i] = int32(slotOf(yBounds, row[yIdx]))
		ix.crit[i] = int32(row[critIdx])
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
// is not a boundary value (the rule must then use the rect-scan
// fallback).
func boundaryIndex(bounds []float64, v float64) (int, bool) {
	i := sort.SearchFloat64s(bounds, v)
	if i < len(bounds) && bounds[i] == v {
		return i, true
	}
	return 0, false
}

// Coverage is the per-ruleset acceleration structure: a bitmap over the
// slot grid with every boundary-aligned rule's rectangle filled, plus the
// (normally empty) list of rules that need the rect-scan fallback.
// A Coverage is read-only after NewCoverage and safe for concurrent
// Covered calls; Release recycles its bitmap.
type Coverage struct {
	ix       *Index
	bm       *grid.Bitmap
	fallback []rules.ClusteredRule
}

// NewCoverage rasterizes the rule set onto a pooled slot-grid bitmap.
// Rules whose edges are not boundary values are kept for the rect scan,
// counted on the index's fallback counter, and reported with the
// offending edges through the OnFallback hook — the degradation to
// O(rules) scanning is never silent.
func (ix *Index) NewCoverage(rs []rules.ClusteredRule) *Coverage {
	bm := ix.pool.Get().(*grid.Bitmap)
	bm.Reset()
	cv := &Coverage{ix: ix, bm: bm}
	for _, r := range rs {
		xlo, ok1 := boundaryIndex(ix.xB, r.XLo)
		xhi, ok2 := boundaryIndex(ix.xB, r.XHi)
		ylo, ok3 := boundaryIndex(ix.yB, r.YLo)
		yhi, ok4 := boundaryIndex(ix.yB, r.YHi)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			cv.fallback = append(cv.fallback, r)
			ix.fallC.Inc()
			if ix.onFallback != nil {
				ix.onFallback(Fallback{Rule: r, Reason: fallbackReason(r, ok1, ok2, ok3, ok4)})
			}
			continue
		}
		ix.fastC.Inc()
		if xhi <= xlo || yhi <= ylo {
			// Empty or inverted value range: only a hand-built rule can
			// have one, since a mined rule spans at least one bin. Covers
			// is identically false, so the rule contributes nothing.
			continue
		}
		bm.FillRect(grid.Rect{R0: ylo, C0: xlo, R1: yhi - 1, C1: xhi - 1})
	}
	return cv
}

// fallbackReason names the rule edges whose values are absent from the
// index's boundary arrays. Only hand-built rules can trigger this —
// mined clusters take their bounds verbatim from the binners.
func fallbackReason(r rules.ClusteredRule, xlo, xhi, ylo, yhi bool) string {
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

// Release returns the coverage bitmap to the index's pool. The Coverage
// must not be used afterwards.
func (cv *Coverage) Release() {
	if cv.bm != nil {
		cv.ix.pool.Put(cv.bm)
		cv.bm = nil
	}
}

// Covered reports whether any rule covers indexed tuple i.
func (cv *Coverage) Covered(i int) bool {
	ix := cv.ix
	xs, ys := ix.xSlot[i], ix.ySlot[i]
	if xs >= 0 && ys >= 0 && cv.bm.Get(int(ys), int(xs)) {
		return true
	}
	if len(cv.fallback) > 0 {
		row := ix.tb.Row(i)
		return Covered(cv.fallback, row[ix.xIdx], row[ix.yIdx])
	}
	return false
}

func (e *ErrorCounts) addIndexed(cv *Coverage, i, segCode int) {
	e.add(cv.Covered(i), int(cv.ix.crit[i]) == segCode)
}

// Measure counts errors of the segmentation over every indexed tuple;
// equivalent to the package-level Measure on the same table.
func (ix *Index) Measure(rs []rules.ClusteredRule, segCode int) ErrorCounts {
	cv := ix.NewCoverage(rs)
	defer cv.Release()
	var e ErrorCounts
	for i := range ix.crit {
		e.addIndexed(cv, i, segCode)
	}
	return e
}

// MeasureIndices counts errors over the indexed tuples selected by idx;
// equivalent to the package-level MeasureIndices.
func (ix *Index) MeasureIndices(rs []rules.ClusteredRule, idx []int, segCode int) ErrorCounts {
	cv := ix.NewCoverage(rs)
	defer cv.Release()
	var e ErrorCounts
	for _, i := range idx {
		e.addIndexed(cv, i, segCode)
	}
	return e
}

// MeasureRepeated performs the repeated k-out-of-n sampling of §3.6 over
// the index. It consumes the RNG exactly like the package-level
// MeasureRepeated, so with equal seeds the two return identical values.
func (ix *Index) MeasureRepeated(rs []rules.ClusteredRule, rng *rand.Rand,
	rounds, k, segCode int) (meanErrors, stdErrors float64, err error) {
	return ix.MeasureRepeatedContext(context.Background(), rs, rng, rounds, k, segCode)
}

// measureCheckEvery is the cancellation checkpoint stride inside a
// measurement round: one context poll per this many tuples scored.
const measureCheckEvery = 2048

// MeasureRepeatedContext is MeasureRepeated with checkpointed
// cancellation: the sampling rounds poll the context every
// measureCheckEvery scored tuples and the call returns the cancellation
// error (with zero statistics — a half-measured error rate is not a
// usable partial result). The RNG is still advanced identically to the
// uncancelled call up to the point of cancellation. A background context
// adds no measurable cost.
func (ix *Index) MeasureRepeatedContext(ctx context.Context, rs []rules.ClusteredRule,
	rng *rand.Rand, rounds, k, segCode int) (meanErrors, stdErrors float64, err error) {
	n := len(ix.crit)
	if k > n {
		k = n
	}
	cv := ix.NewCoverage(rs)
	defer cv.Release()
	point := cancelcheck.New(ctx).Point(measureCheckEvery)
	var cancelErr error
	mean, std, err := stats.RepeatedKofN(rng, rounds, k, n, func(sample []int) float64 {
		if cancelErr != nil {
			return 0 // already canceled: drain remaining rounds without scoring
		}
		var e ErrorCounts
		for _, i := range sample {
			if cerr := point.Check(); cerr != nil {
				cancelErr = cerr
				return 0
			}
			e.addIndexed(cv, i, segCode)
		}
		return float64(e.Errors())
	})
	if cancelErr != nil {
		return 0, 0, cancelErr
	}
	return mean, std, err
}
