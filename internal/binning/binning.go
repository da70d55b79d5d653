// Package binning partitions attribute domains into bins (paper §3.1).
// Quantitative attributes are mapped to consecutive integer bin numbers
// before mining so that the binning process is transparent to the
// association rule engine. The paper's experiments use equi-width bins;
// equi-depth and homogeneity-based binning are provided as the paper's
// suggested alternatives, supervised (entropy/MDL) cuts as its §5
// information-gain suggestion, and a categorical binner supports the
// future-work extension of one categorical LHS attribute, binned in
// category-code order so that every cluster is a range of codes.
//
// Every strategy is one concrete Binner: the fitting algorithms differ,
// but each fit reduces to one of two lookups — equal-width division or
// a search over sorted cut points.
package binning

import (
	"fmt"
	"math"
	"sort"
)

// kind is a Binner's lookup.
type kind uint8

const (
	// divide is equal-width division over [lo, hi] (equi-width,
	// categorical).
	divide kind = iota
	// search finds the bin among sorted cut points (equi-depth,
	// homogeneity, supervised).
	search
)

// Binner maps attribute values to bin numbers 0..NumBins-1 and back to
// value ranges. Bins are half-open [lo, hi) except the last, which is
// closed so the domain maximum maps to a valid bin. The build's hot
// loop calls Bin once per tuple and axis, so it is a concrete method
// with a kind switch rather than an interface dispatch.
type Binner struct {
	kind   kind
	method string
	n      int
	// divide: the domain [lo, hi] and the bin width.
	lo, hi, width float64
	// search: cuts[i] is the lower bound of bin i; cuts has n+1
	// entries, the last being the domain maximum.
	cuts []float64
}

// NumBins reports the number of bins.
func (b *Binner) NumBins() int { return b.n }

// Method names the strategy that fitted the binner: equi-width,
// equi-depth, homogeneity, supervised or categorical. Binning metrics
// and span attributes carry it.
func (b *Binner) Method() string { return b.method }

// Bin maps a value to its bin, clamping values outside the fitted
// domain to the first or last bin. Equi-width keeps the division, not a
// multiply by the reciprocal, which could move a value on a bin edge by
// one bin.
func (b *Binner) Bin(v float64) int {
	switch b.kind {
	case divide:
		if v <= b.lo {
			return 0
		}
		if v >= b.hi {
			return b.n - 1
		}
		i := int((v - b.lo) / b.width)
		if i >= b.n {
			i = b.n - 1
		}
		return i
	default:
		n := b.n
		if v <= b.cuts[0] {
			return 0
		}
		if v >= b.cuts[n] {
			return n - 1
		}
		// cuts is sorted; find the right-most lower bound <= v.
		i := sort.SearchFloat64s(b.cuts, v)
		if i > 0 && b.cuts[i] != v {
			i--
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
}

// Bounds returns the value range covered by bin i. For a categorical
// bin the range is its category code c, returned as [c, c+1).
func (b *Binner) Bounds(i int) (lo, hi float64) {
	switch b.kind {
	case divide:
		return b.lo + float64(i)*b.width, b.lo + float64(i+1)*b.width
	default:
		return b.cuts[i], b.cuts[i+1]
	}
}

// WidenDegenerate widens a degenerate domain [lo, lo] to the unit
// interval [lo, lo+1), so binning a constant column stays well-formed
// (every value lands in bin 0) instead of producing a zero-width
// domain. Other domains come back unchanged.
func WidenDegenerate(lo, hi float64) (float64, float64) {
	if lo == hi {
		hi = lo + 1
	}
	return lo, hi
}

// NewEquiWidth constructs an equi-width binner over [lo, hi] — the
// paper's default strategy.
func NewEquiWidth(lo, hi float64, n int) (*Binner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binning: need at least one bin, got %d", n)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("binning: invalid domain [%g, %g]", lo, hi)
	}
	return &Binner{kind: divide, method: "equi-width", n: n, lo: lo, hi: hi, width: (hi - lo) / float64(n)}, nil
}

// NewEquiWidthFromData fits an equi-width binner to the min/max of
// values, widening a constant column with WidenDegenerate.
func NewEquiWidthFromData(values []float64, n int) (*Binner, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("binning: no data to fit")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	lo, hi = WidenDegenerate(lo, hi)
	return NewEquiWidth(lo, hi, n)
}

// newSearch is the binner over sorted, distinct cut points.
func newSearch(method string, cuts []float64) *Binner {
	return &Binner{kind: search, method: method, n: len(cuts) - 1, cuts: cuts}
}

// NewEquiDepth fits an equi-depth binner with n bins to values: bins
// hold roughly the same number of tuples, using quantile boundaries
// (the strategy of Srikant & Agrawal's quantitative rule mining, paper
// §1.1). Heavily repeated values can make some quantile boundaries
// coincide; the fitted binner may then have fewer than n distinct bins.
func NewEquiDepth(values []float64, n int) (*Binner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binning: need at least one bin, got %d", n)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("binning: no data to fit")
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cuts []float64
	prev := math.Inf(-1)
	for i := 0; i <= n; i++ {
		pos := float64(i) / float64(n) * float64(len(sorted)-1)
		v := sorted[int(math.Round(pos))]
		if v > prev {
			cuts = append(cuts, v)
			prev = v
		}
	}
	if len(cuts) < 2 {
		// All values identical.
		lo, hi := WidenDegenerate(sorted[0], sorted[0])
		cuts = []float64{lo, hi}
	}
	return newSearch("equi-depth", cuts), nil
}

// NewHomogeneity fits a homogeneity-based binner with n bins to values:
// bins are sized so the tuples within each are near-uniformly
// distributed (paper references [14, 23]). It builds a fine equi-width
// micro-histogram and splits recursively: at each step the segment
// whose micro-bin counts deviate most from uniform (largest
// within-segment sum of squared errors) is split at the point
// minimizing the children's summed SSE. On already-uniform data ties
// resolve to splitting the longest segment at its midpoint, so the
// result degrades gracefully to equi-width.
func NewHomogeneity(values []float64, n int) (*Binner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binning: need at least one bin, got %d", n)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("binning: no data to fit")
	}
	micro := n * 8
	ew, err := NewEquiWidthFromData(values, micro)
	if err != nil {
		return nil, err
	}
	counts := make([]float64, micro)
	for _, v := range values {
		counts[ew.Bin(v)]++
	}
	// Prefix sums give O(1) SSE of any micro-bin range [a, b).
	prefix := make([]float64, micro+1)
	prefixSq := make([]float64, micro+1)
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
		prefixSq[i+1] = prefixSq[i] + c*c
	}
	sse := func(a, b int) float64 {
		k := float64(b - a)
		if k <= 1 {
			return 0
		}
		sum := prefix[b] - prefix[a]
		sumSq := prefixSq[b] - prefixSq[a]
		return sumSq - sum*sum/k
	}
	type segment struct{ start, end int }
	segs := []segment{{0, micro}}
	for len(segs) < n {
		// Pick the least homogeneous segment; ties go to the longest,
		// then the lowest start, keeping the fit deterministic.
		pick := -1
		for i, s := range segs {
			if s.end-s.start < 2 {
				continue
			}
			if pick < 0 {
				pick = i
				continue
			}
			p := segs[pick]
			si, sp := sse(s.start, s.end), sse(p.start, p.end)
			switch {
			case si > sp+1e-12:
				pick = i
			case math.Abs(si-sp) <= 1e-12 && (s.end-s.start) > (p.end-p.start):
				pick = i
			}
		}
		if pick < 0 {
			break // every segment is a single micro-bin
		}
		s := segs[pick]
		// Split at the cut minimizing the children's summed SSE; ties
		// prefer the cut nearest the midpoint.
		mid := (s.start + s.end) / 2
		bestCut, bestCost := mid, math.Inf(1)
		for cut := s.start + 1; cut < s.end; cut++ {
			cost := sse(s.start, cut) + sse(cut, s.end)
			better := cost < bestCost-1e-12
			tie := math.Abs(cost-bestCost) <= 1e-12 && abs(cut-mid) < abs(bestCut-mid)
			if better || tie {
				bestCut, bestCost = cut, cost
			}
		}
		segs[pick] = segment{s.start, bestCut}
		segs = append(segs, segment{bestCut, s.end})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	cuts := make([]float64, 0, len(segs)+1)
	for _, s := range segs {
		lo, _ := ew.Bounds(s.start)
		cuts = append(cuts, lo)
	}
	_, last := ew.Bounds(micro - 1)
	cuts = append(cuts, last)
	return newSearch("homogeneity", cuts), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NewCategorical constructs the categorical binner over n category
// codes: code c is bin c, by equal-width division of [0, n) with width
// 1, so a run of adjacent bins is a range of codes.
func NewCategorical(n int) (*Binner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binning: need at least one category, got %d", n)
	}
	return &Binner{kind: divide, method: "categorical", n: n, hi: float64(n), width: 1}, nil
}

// Boundaries collects every boundary value a binner can produce — the
// lo and hi of each bin's Bounds — sorted ascending with duplicates
// removed. Every binner's bins tile its domain contiguously, so the
// result is the boundary array B[0..n] with bin b spanning
// [B[b], B[b+1]); for a categorical binner it is the category cut
// points 0, 1, ..., n. Because cluster rule bounds are taken verbatim
// from Bounds, every rule edge is a member of this array — the property
// the verification index relies on to replace value comparisons with
// slot comparisons exactly.
func Boundaries(b *Binner) []float64 {
	n := b.NumBins()
	vals := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		lo, hi := b.Bounds(i)
		vals = append(vals, lo, hi)
	}
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
