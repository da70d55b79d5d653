// Package stats provides the statistical primitives ARCS relies on:
// entropy and information-gain measures (used by attribute selection and
// by the C4.5 baseline), the mean, and reservoir / k-out-of-n sampling
// (the ingest sample and the segmentation verifier's draws).
package stats

import "math"

// Log2 returns log base 2 of x, defined as 0 for x <= 0. The MDL cost
// model and entropy computations both need this guarded form: an empty
// class or zero-error segmentation contributes no bits.
func Log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}

// Entropy computes the Shannon entropy (in bits) of a discrete
// distribution given as non-negative counts. Zero counts contribute
// nothing; a zero total yields zero entropy.
func Entropy(counts []float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// InfoGain computes the information gain of a partition: parent entropy
// minus the size-weighted entropy of the children. children[i] is the
// class-count vector of partition i; the parent distribution is the
// element-wise sum.
func InfoGain(children [][]float64) float64 {
	if len(children) == 0 {
		return 0
	}
	parent := make([]float64, len(children[0]))
	var total float64
	sizes := make([]float64, len(children))
	for i, ch := range children {
		for j, c := range ch {
			parent[j] += c
			sizes[i] += c
		}
		total += sizes[i]
	}
	if total <= 0 {
		return 0
	}
	gain := Entropy(parent)
	for i, ch := range children {
		gain -= sizes[i] / total * Entropy(ch)
	}
	return gain
}

// SplitInfo computes the intrinsic information of a partition: the
// entropy of the partition sizes themselves. Used by C4.5's gain ratio.
func SplitInfo(children [][]float64) float64 {
	sizes := make([]float64, len(children))
	for i, ch := range children {
		for _, c := range ch {
			sizes[i] += c
		}
	}
	return Entropy(sizes)
}

// GainRatio computes C4.5's gain ratio: information gain normalized by
// split info. A split info of zero (all tuples in one child) yields zero.
func GainRatio(children [][]float64) float64 {
	si := SplitInfo(children)
	if si <= 0 {
		return 0
	}
	return InfoGain(children) / si
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
