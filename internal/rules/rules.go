// Package rules defines the association rule model shared across ARCS:
// cell rules (one grid cell, the output of the mining engine, §3.2) and
// clustered association rules (rectangular ranges of cells converted back
// to attribute value ranges, §2.1). It also carries the generic
// itemset-style rule used by the Apriori substrate.
package rules

import (
	"fmt"
	"strings"
)

// CellRule is a two-dimensional association rule over binned data:
//
//	X = i  AND  Y = j  =>  G = seg
//
// where i and j are bin numbers. It is the unit the BitOp grid is built
// from.
type CellRule struct {
	X, Y int // bin numbers of the two LHS attributes
	Seg  int // category code of the RHS criterion value

	Support    float64 // |(i, j, Gk)| / N
	Confidence float64 // |(i, j, Gk)| / |(i, j)|
}

// String renders the binned rule for diagnostics.
func (r CellRule) String() string {
	return fmt.Sprintf("X=%d AND Y=%d => G=%d (sup %.4f, conf %.2f)",
		r.X, r.Y, r.Seg, r.Support, r.Confidence)
}

// ClusteredRule is the user-facing output of ARCS: a conjunction of two
// attribute ranges implying a criterion value,
//
//	xlo <= XAttr < xhi  AND  ylo <= YAttr < yhi  =>  CritAttr = CritValue
//
// Bin bounds are half-open in value space, matching the binners.
type ClusteredRule struct {
	XAttr, YAttr string // LHS attribute names
	CritAttr     string // RHS attribute name
	CritValue    string // RHS category label

	// Bin-space rectangle, inclusive on both ends.
	XLoBin, XHiBin int
	YLoBin, YHiBin int

	// Value-space ranges, half-open [lo, hi).
	XLo, XHi float64
	YLo, YHi float64

	// Support and Confidence are the aggregate measures of the cluster:
	// the summed segment count of its cells over N, and over the summed
	// cell totals, respectively. Clustered rules always meet the minimum
	// thresholds because every member cell does (§2.1).
	Support    float64
	Confidence float64
}

// String renders the rule in the paper's style, e.g.
//
//	40 <= age < 42 AND 40000 <= salary < 60000 => group = A
func (r ClusteredRule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%g <= %s < %g AND %g <= %s < %g => %s = %s",
		r.XLo, r.XAttr, r.XHi, r.YLo, r.YAttr, r.YHi, r.CritAttr, r.CritValue)
	return b.String()
}

// Covers reports whether an (x, y) point in value space satisfies the
// rule's LHS.
func (r ClusteredRule) Covers(x, y float64) bool {
	return r.XLo <= x && x < r.XHi && r.YLo <= y && y < r.YHi
}

// Area reports the number of grid cells the rule spans.
func (r ClusteredRule) Area() int {
	return (r.XHiBin - r.XLoBin + 1) * (r.YHiBin - r.YLoBin + 1)
}

// Rect is an axis-aligned rectangle in a two-attribute value plane,
// half-open [lo, hi) on both axes like the binners' value ranges, so
// adjacent rectangles never both contain a shared edge. Ground-truth
// regions are Rects.
type Rect struct {
	XLo float64 `json:"x_lo"`
	XHi float64 `json:"x_hi"`
	YLo float64 `json:"y_lo"`
	YHi float64 `json:"y_hi"`
}

// Contains reports whether an (x, y) point falls in the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return r.XLo <= x && x < r.XHi && r.YLo <= y && y < r.YHi
}

// Item is one attribute=value term of a generic association rule, used by
// the Apriori substrate. Attr is the schema position; Val is the encoded
// value (bin number or category code).
type Item struct {
	Attr int
	Val  int
}

// Itemset is a sorted set of items. Items are ordered by (Attr, Val);
// constructors in the apriori package maintain the ordering.
type Itemset []Item

// Rule is a generic association rule X => Y over items, produced by the
// Apriori substrate (the "existing algorithms" of §3.2 that ARCS's
// special-purpose engine replaces).
type Rule struct {
	X, Y       Itemset
	Support    float64
	Confidence float64
	// Lift is Confidence / support(Y): how much more likely Y is given
	// X than unconditionally. Values above 1 mark positive association.
	Lift float64
}

// String renders the generic rule.
func (r Rule) String() string {
	render := func(is Itemset) string {
		parts := make([]string, len(is))
		for i, it := range is {
			parts[i] = fmt.Sprintf("a%d=%d", it.Attr, it.Val)
		}
		return strings.Join(parts, " AND ")
	}
	return fmt.Sprintf("%s => %s (sup %.4f, conf %.2f)", render(r.X), render(r.Y), r.Support, r.Confidence)
}
