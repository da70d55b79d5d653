// Package cluster turns the rectangles found by BitOp back into
// user-facing clustered association rules (paper §2.1), implements the
// dynamic cluster pruning of §3.5, and provides one of the paper's
// future-work extensions: combining overlapping two-attribute clustered
// rules into rules over more than two attributes.
package cluster

import (
	"fmt"
	"sort"

	"arcs/internal/binning"
	"arcs/internal/counts"
	"arcs/internal/grid"
	"arcs/internal/rules"
)

// Meta names the attributes a clustered rule is expressed over.
type Meta struct {
	XAttr, YAttr string
	CritAttr     string
	CritValue    string
}

// FromRects converts BitOp rectangles (rows = y bins, cols = x bins) into
// clustered association rules, translating bin ranges back to attribute
// value ranges via the binners and computing each cluster's aggregate
// support and confidence from the BinArray.
func FromRects(rects []grid.Rect, ba counts.Backend, seg int, xb, yb *binning.Binner, meta Meta) ([]rules.ClusteredRule, error) {
	if seg < 0 || seg >= ba.NSeg() {
		return nil, fmt.Errorf("cluster: criterion value %d out of range 0..%d", seg, ba.NSeg()-1)
	}
	out := make([]rules.ClusteredRule, 0, len(rects))
	for _, r := range rects {
		if r.C1 >= ba.NX() || r.R1 >= ba.NY() || r.C0 < 0 || r.R0 < 0 {
			return nil, fmt.Errorf("cluster: rectangle %v outside %d×%d grid", r, ba.NX(), ba.NY())
		}
		var segCount, total uint64
		for x := r.C0; x <= r.C1; x++ {
			for y := r.R0; y <= r.R1; y++ {
				segCount += uint64(ba.Count(x, y, seg))
				total += uint64(ba.CellTotal(x, y))
			}
		}
		xlo, _ := xb.Bounds(r.C0)
		_, xhi := xb.Bounds(r.C1)
		ylo, _ := yb.Bounds(r.R0)
		_, yhi := yb.Bounds(r.R1)
		cr := rules.ClusteredRule{
			XAttr: meta.XAttr, YAttr: meta.YAttr,
			CritAttr: meta.CritAttr, CritValue: meta.CritValue,
			XLoBin: r.C0, XHiBin: r.C1,
			YLoBin: r.R0, YHiBin: r.R1,
			XLo: xlo, XHi: xhi,
			YLo: ylo, YHi: yhi,
		}
		if ba.N() > 0 {
			cr.Support = float64(segCount) / float64(ba.N())
		}
		if total > 0 {
			cr.Confidence = float64(segCount) / float64(total)
		}
		out = append(out, cr)
	}
	return out, nil
}

// AttrRange is one attribute's value range in a multi-attribute rule.
type AttrRange struct {
	Attr   string
	Lo, Hi float64 // half-open [Lo, Hi)
}

// MultiRule is a clustered association rule over an arbitrary number of
// LHS attributes, produced by iteratively combining overlapping
// two-attribute rules (paper §5 future work).
type MultiRule struct {
	Ranges    []AttrRange // sorted by attribute name
	CritAttr  string
	CritValue string
	// Support and Confidence are conservative estimates: the minimum
	// over the combined two-attribute rules. The true joint measures
	// require a verification pass over the data.
	Support    float64
	Confidence float64
}

// String renders the multi-attribute rule.
func (m MultiRule) String() string {
	s := ""
	for i, r := range m.Ranges {
		if i > 0 {
			s += " AND "
		}
		s += fmt.Sprintf("%g <= %s < %g", r.Lo, r.Attr, r.Hi)
	}
	return fmt.Sprintf("%s => %s = %s", s, m.CritAttr, m.CritValue)
}

// rangesOverlap reports whether two half-open ranges intersect.
func rangesOverlap(aLo, aHi, bLo, bHi float64) bool {
	return aLo < bHi && bLo < aHi
}

// Combine merges two-attribute clustered rules from two different
// attribute pairs that share exactly one attribute. Rules with the same
// criterion value whose shared-attribute ranges overlap are combined into
// a three-attribute rule whose shared range is the intersection. This is
// one step of the iterative combination the paper proposes for building
// clusters with arbitrarily many attributes.
func Combine(a, b []rules.ClusteredRule) ([]MultiRule, error) {
	var out []MultiRule
	for _, ra := range a {
		for _, rb := range b {
			if ra.CritAttr != rb.CritAttr || ra.CritValue != rb.CritValue {
				continue
			}
			shared, m, err := combinePair(ra, rb)
			if err != nil {
				return nil, err
			}
			if shared {
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// combinePair attempts to merge two 2-attribute rules sharing one
// attribute. It reports whether they combine.
func combinePair(ra, rb rules.ClusteredRule) (bool, MultiRule, error) {
	type attrRange struct {
		attr   string
		lo, hi float64
	}
	aRanges := []attrRange{{ra.XAttr, ra.XLo, ra.XHi}, {ra.YAttr, ra.YLo, ra.YHi}}
	bRanges := []attrRange{{rb.XAttr, rb.XLo, rb.XHi}, {rb.YAttr, rb.YLo, rb.YHi}}

	// Find the shared attribute.
	sharedCount := 0
	var sharedA, sharedB attrRange
	var uniqueA, uniqueB []attrRange
	for _, x := range aRanges {
		found := false
		for _, y := range bRanges {
			if x.attr == y.attr {
				sharedCount++
				sharedA, sharedB = x, y
				found = true
			}
		}
		if !found {
			uniqueA = append(uniqueA, x)
		}
	}
	for _, y := range bRanges {
		found := false
		for _, x := range aRanges {
			if x.attr == y.attr {
				found = true
			}
		}
		if !found {
			uniqueB = append(uniqueB, y)
		}
	}
	if sharedCount == 0 {
		return false, MultiRule{}, nil
	}
	if sharedCount > 1 {
		return false, MultiRule{}, fmt.Errorf("cluster: rules share both attributes; use the 2D pipeline directly")
	}
	if !rangesOverlap(sharedA.lo, sharedA.hi, sharedB.lo, sharedB.hi) {
		return false, MultiRule{}, nil
	}
	lo := sharedA.lo
	if sharedB.lo > lo {
		lo = sharedB.lo
	}
	hi := sharedA.hi
	if sharedB.hi < hi {
		hi = sharedB.hi
	}
	ranges := []AttrRange{{Attr: sharedA.attr, Lo: lo, Hi: hi}}
	for _, u := range uniqueA {
		ranges = append(ranges, AttrRange{Attr: u.attr, Lo: u.lo, Hi: u.hi})
	}
	for _, u := range uniqueB {
		ranges = append(ranges, AttrRange{Attr: u.attr, Lo: u.lo, Hi: u.hi})
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Attr < ranges[j].Attr })
	m := MultiRule{
		Ranges:    ranges,
		CritAttr:  ra.CritAttr,
		CritValue: ra.CritValue,
		Support:   minF(ra.Support, rb.Support),
	}
	m.Confidence = minF(ra.Confidence, rb.Confidence)
	return true, m, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
