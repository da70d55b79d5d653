package binning

import (
	"fmt"
	"math"
	"sort"

	"arcs/internal/stats"
)

// NewSupervised fits an entropy-based (Fayyad & Irani style)
// discretizer on (value, class) pairs: cut points are chosen to
// minimize class entropy and accepted only while they pass the MDL
// stopping criterion, so bin boundaries align with the places where the
// class distribution actually changes. This realizes the paper's §5
// suggestion of applying information-gain measures to threshold
// determination: on ARCS's Function 2 data, supervised cuts on salary
// land at the disjunct edges instead of wherever the equi-width lattice
// happens to fall.
//
// maxBins caps the number of bins (recursion stops early when reached);
// it must be at least 2. Classes are category codes.
func NewSupervised(values []float64, classes []int, maxBins int) (*Binner, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("binning: no data to fit")
	}
	if len(values) != len(classes) {
		return nil, fmt.Errorf("binning: %d values but %d classes", len(values), len(classes))
	}
	if maxBins < 2 {
		return nil, fmt.Errorf("binning: need at least 2 bins, got %d", maxBins)
	}
	nClasses := 0
	for _, c := range classes {
		if c < 0 {
			return nil, fmt.Errorf("binning: negative class code %d", c)
		}
		if c+1 > nClasses {
			nClasses = c + 1
		}
	}
	// Sort jointly by value.
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	sv := make([]float64, len(values))
	sc := make([]int, len(values))
	for i, j := range idx {
		sv[i] = values[j]
		sc[i] = classes[j]
	}

	var cuts []float64
	var recurse func(lo, hi int)
	recurse = func(lo, hi int) {
		if len(cuts)+1 >= maxBins {
			return
		}
		cut, ok := bestCut(sv, sc, lo, hi, nClasses)
		if !ok {
			return
		}
		cuts = append(cuts, cut)
		// Partition at the cut and recurse into both halves.
		mid := sort.SearchFloat64s(sv[lo:hi], cut) + lo
		recurse(lo, mid)
		if len(cuts)+1 < maxBins {
			recurse(mid, hi)
		}
	}
	recurse(0, len(sv))

	lo, hi := WidenDegenerate(sv[0], sv[len(sv)-1])
	boundaries := append([]float64{lo}, cuts...)
	boundaries = append(boundaries, hi)
	sort.Float64s(boundaries)
	// Collapse duplicate boundaries (possible with repeated values);
	// lo < hi keeps at least one bin.
	dedup := boundaries[:1]
	for _, b := range boundaries[1:] {
		if b > dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return newSearch("supervised", dedup), nil
}

// bestCut finds the entropy-minimizing cut in sv[lo:hi] and applies the
// Fayyad-Irani MDL acceptance test. It returns the cut value (midpoint
// between adjacent distinct values) and whether a cut was accepted.
func bestCut(sv []float64, sc []int, lo, hi, nClasses int) (float64, bool) {
	n := hi - lo
	if n < 4 {
		return 0, false
	}
	total := make([]float64, nClasses)
	for i := lo; i < hi; i++ {
		total[sc[i]]++
	}
	parentH := stats.Entropy(total)
	if parentH == 0 {
		return 0, false
	}
	left := make([]float64, nClasses)
	right := append([]float64(nil), total...)
	bestGain, bestCutV := 0.0, 0.0
	var bestLeft, bestRight []float64
	found := false
	for i := lo; i < hi-1; i++ {
		left[sc[i]]++
		right[sc[i]]--
		if sv[i] == sv[i+1] {
			continue
		}
		nl := float64(i - lo + 1)
		nr := float64(n) - nl
		gain := parentH - (nl/float64(n))*stats.Entropy(left) - (nr/float64(n))*stats.Entropy(right)
		if gain > bestGain {
			bestGain = gain
			bestCutV = (sv[i] + sv[i+1]) / 2
			bestLeft = append(bestLeft[:0], left...)
			bestRight = append(bestRight[:0], right...)
			found = true
		}
	}
	if !found {
		return 0, false
	}
	// Fayyad-Irani MDL criterion: accept when
	//   gain > log2(n-1)/n + delta/n
	// with delta = log2(3^k - 2) - (k*H(S) - k1*H(S1) - k2*H(S2)),
	// where k, k1, k2 are the class counts present in the node and its
	// halves.
	k := countPresent(total)
	k1 := countPresent(bestLeft)
	k2 := countPresent(bestRight)
	h := parentH
	h1 := stats.Entropy(bestLeft)
	h2 := stats.Entropy(bestRight)
	delta := math.Log2(math.Pow(3, float64(k))-2) -
		(float64(k)*h - float64(k1)*h1 - float64(k2)*h2)
	threshold := (math.Log2(float64(n)-1) + delta) / float64(n)
	if bestGain <= threshold {
		return 0, false
	}
	return bestCutV, true
}

func countPresent(counts []float64) int {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}
