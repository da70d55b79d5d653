// Package verify implements the verifier of paper §3.6 and Figure 2: it
// measures the accuracy of a candidate segmentation — a set of clustered
// association rules for one criterion value — against samples of the
// source data.
//
// A tuple is a false positive when some cluster covers it but its
// criterion value differs, and a false negative when it carries the
// criterion value but no cluster covers it. The total error is their sum.
// Because the optimal clustering of real data is unknown, the error is
// approximated on random samples; "repeated k out of n" sampling averages
// the measurement over several independent draws for a tighter estimate.
//
// The threshold search scores its probes on a pre-binned Index, which
// makes the draws once, when it is built, and scores every probe on
// them. Outside the search, coverage is counted in two passes only:
// SegmentStats over a table and MeasureLattice over a lattice of the
// value plane.
package verify

import (
	"fmt"

	"arcs/internal/rules"
)

// ErrorCounts aggregates a verification pass.
type ErrorCounts struct {
	FalsePositives int // covered by a cluster, label differs
	FalseNegatives int // labeled with the criterion value, not covered
	Total          int // tuples examined
}

// Errors returns the summed error (FP + FN), the quantity MDL encodes.
func (e ErrorCounts) Errors() int { return e.FalsePositives + e.FalseNegatives }

// Rate returns the error fraction over the examined tuples, or 0 when no
// tuples were examined.
func (e ErrorCounts) Rate() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Errors()) / float64(e.Total)
}

// String renders the counts for reports.
func (e ErrorCounts) String() string {
	return fmt.Sprintf("%d FP + %d FN of %d (%.2f%%)",
		e.FalsePositives, e.FalseNegatives, e.Total, 100*e.Rate())
}

// add tallies one tuple: whether the segmentation covers it, and
// whether it carries the criterion value.
func (e *ErrorCounts) add(covered, isSeg bool) {
	e.Total++
	switch {
	case covered && !isSeg:
		e.FalsePositives++
	case !covered && isSeg:
		e.FalseNegatives++
	}
}

// LatticeCounts is one walk of a steps×steps lattice over a value-space
// domain: the points a segmentation's rules cover against the points a
// set of truth rectangles contains. Areas are point counts; divided by
// Points they are fractions of the domain.
type LatticeCounts struct {
	Points int // lattice points walked
	Mined  int // points some rule covers
	Truth  int // points some truth rectangle contains
	Both   int // points in both unions
	// RuleArea[r] counts the points rule r covers.
	RuleArea []int
	// RegionArea[k] counts the points whose first containing truth
	// rectangle is k, so overlapping regions never count a point twice.
	RegionArea []int
	// Inter[r][k] counts the points rule r covers inside region k, by
	// the same first-containing assignment.
	Inter [][]int
}

// MeasureLattice walks a uniform lattice of steps×steps points over
// [xLo,xHi)×[yLo,yHi), each point the centre of its cell, and counts the
// coverage of rs and truth there. It is the one place geometric measures
// against ground truth (RegionErrors, rectangle recovery) are counted.
func MeasureLattice(rs []rules.ClusteredRule, truth []rules.Rect,
	xLo, xHi, yLo, yHi float64, steps int) (LatticeCounts, error) {
	if steps < 2 {
		return LatticeCounts{}, fmt.Errorf("verify: need at least 2 lattice steps, got %d", steps)
	}
	if !(xLo < xHi) || !(yLo < yHi) {
		return LatticeCounts{}, fmt.Errorf("verify: invalid domain [%g,%g]×[%g,%g]", xLo, xHi, yLo, yHi)
	}
	lc := LatticeCounts{
		Points:     steps * steps,
		RuleArea:   make([]int, len(rs)),
		RegionArea: make([]int, len(truth)),
		Inter:      make([][]int, len(rs)),
	}
	for r := range lc.Inter {
		lc.Inter[r] = make([]int, len(truth))
	}
	for i := 0; i < steps; i++ {
		x := xLo + (xHi-xLo)*(float64(i)+0.5)/float64(steps)
		for j := 0; j < steps; j++ {
			y := yLo + (yHi-yLo)*(float64(j)+0.5)/float64(steps)
			region := -1
			for k, t := range truth {
				if t.Contains(x, y) {
					region = k
					break
				}
			}
			mined := false
			for r, rule := range rs {
				if !rule.Covers(x, y) {
					continue
				}
				mined = true
				lc.RuleArea[r]++
				if region >= 0 {
					lc.Inter[r][region]++
				}
			}
			if mined {
				lc.Mined++
			}
			if region >= 0 {
				lc.Truth++
				lc.RegionArea[region]++
				if mined {
					lc.Both++
				}
			}
		}
	}
	return lc, nil
}

// RegionErrors computes the geometric error of a segmentation against
// known ground-truth rectangles (available only for synthetic data,
// Figure 9): the fractions of a steps×steps lattice over the domain
// that the rules cover outside the truth (false positives) and that the
// truth holds outside the rules (false negatives). They approximate the
// areas of the false-positive and false-negative regions.
func RegionErrors(rs []rules.ClusteredRule, truth []rules.Rect,
	xLo, xHi, yLo, yHi float64, steps int) (falsePosFrac, falseNegFrac float64, err error) {
	lc, err := MeasureLattice(rs, truth, xLo, xHi, yLo, yHi, steps)
	if err != nil {
		return 0, 0, err
	}
	return float64(lc.Mined-lc.Both) / float64(lc.Points), float64(lc.Truth-lc.Both) / float64(lc.Points), nil
}
