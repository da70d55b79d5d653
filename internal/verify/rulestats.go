package verify

import (
	"fmt"

	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// RuleStats holds one clustered rule's measures re-verified against a
// table. The mining-time support and confidence come from the BinArray
// over the training stream; verifying against a fresh sample quantifies
// how well they generalize.
type RuleStats struct {
	Rule       rules.ClusteredRule
	Covered    int     // tuples the rule's LHS covers
	Matching   int     // covered tuples carrying the criterion value
	Support    float64 // Matching / table size
	Confidence float64 // Matching / Covered
	// UniqueCovered counts covered tuples no earlier rule in the
	// segmentation covers — the rule's marginal contribution.
	UniqueCovered int
}

// SegmentStats is the one row × rule pass over a table: it returns the
// segmentation's error counts, the number of tuples carrying the
// criterion value, and every rule's measures, in order. A row is
// credited to the UniqueCovered of the first rule covering it, and the
// same "covered by an earlier rule" flag is, after the last rule, the
// row's coverage verdict. xIdx, yIdx and critIdx are schema positions;
// segCode is the criterion value's category code.
func SegmentStats(rs []rules.ClusteredRule, tb *dataset.Table, xIdx, yIdx, critIdx, segCode int) (e ErrorCounts, labeled int, stats []RuleStats, err error) {
	if tb.Len() == 0 {
		return ErrorCounts{}, 0, nil, fmt.Errorf("verify: empty table")
	}
	stats = make([]RuleStats, len(rs))
	for i, r := range rs {
		stats[i].Rule = r
	}
	for row := 0; row < tb.Len(); row++ {
		t := tb.Row(row)
		x, y := t[xIdx], t[yIdx]
		isSeg := int(t[critIdx]) == segCode
		if isSeg {
			labeled++
		}
		covered := false
		for i, r := range rs {
			if !r.Covers(x, y) {
				continue
			}
			stats[i].Covered++
			if isSeg {
				stats[i].Matching++
			}
			if !covered {
				stats[i].UniqueCovered++
				covered = true
			}
		}
		e.add(covered, isSeg)
	}
	n := float64(tb.Len())
	for i := range stats {
		stats[i].Support = float64(stats[i].Matching) / n
		if stats[i].Covered > 0 {
			stats[i].Confidence = float64(stats[i].Matching) / float64(stats[i].Covered)
		}
	}
	return e, labeled, stats, nil
}
