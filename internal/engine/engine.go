// Package engine implements the special-purpose association rule engine
// of paper §3.2 (Figure 3): mining two-dimensional association rules
// directly from the BinArray in a single scan of its cells, plus the
// threshold enumeration structure of §3.7 (Figure 10) that the heuristic
// optimizer searches.
//
// Because the BinArray is retained in memory, applying different support
// or confidence thresholds — the "re-mining" of the feedback loop — never
// touches the source data again.
package engine

import (
	"fmt"
	"sort"

	"arcs/internal/counts"
	"arcs/internal/grid"
	"arcs/internal/rules"
)

// ruleBar is the cell-rule test of Figure 3 at one pair of thresholds.
// The support threshold is converted to a count once, so each cell costs
// one comparison and one division.
type ruleBar struct {
	minCount, minConfidence float64
}

// newRuleBar checks the criterion value and the thresholds; a NaN
// threshold is out of range.
func newRuleBar(ba counts.Backend, seg int, minSupport, minConfidence float64) (ruleBar, error) {
	if seg < 0 || seg >= ba.NSeg() {
		return ruleBar{}, fmt.Errorf("engine: criterion value %d out of range 0..%d", seg, ba.NSeg()-1)
	}
	if !(minSupport >= 0 && minSupport <= 1) {
		return ruleBar{}, fmt.Errorf("engine: min support %g outside [0, 1]", minSupport)
	}
	if !(minConfidence >= 0 && minConfidence <= 1) {
		return ruleBar{}, fmt.Errorf("engine: min confidence %g outside [0, 1]", minConfidence)
	}
	return ruleBar{minCount: minSupport * float64(ba.N()), minConfidence: minConfidence}, nil
}

// admits reports whether an occupied cell holding segCount tuples of
// the criterion value among cellTotal is a rule.
func (b ruleBar) admits(segCount, cellTotal uint32) bool {
	return float64(segCount) >= b.minCount &&
		float64(segCount)/float64(cellTotal) >= b.minConfidence
}

// GenAssociationRules derives all cell rules X=i ∧ Y=j ⇒ G=seg whose
// support and confidence meet the thresholds, by checking each occupied
// cell of the BinArray (Figure 3). minSupport is a fraction of N;
// minConfidence is a fraction of the cell total. Rules are returned in
// deterministic row-major cell order.
func GenAssociationRules(ba counts.Backend, seg int, minSupport, minConfidence float64) ([]rules.CellRule, error) {
	bar, err := newRuleBar(ba, seg, minSupport, minConfidence)
	if err != nil {
		return nil, err
	}
	var out []rules.CellRule
	counts.Occupied(ba, seg, func(x, y int, segCount, cellTotal uint32) {
		if !bar.admits(segCount, cellTotal) {
			return
		}
		out = append(out, rules.CellRule{
			X: x, Y: y, Seg: seg,
			Support:    float64(segCount) / float64(ba.N()),
			Confidence: float64(segCount) / float64(cellTotal),
		})
	})
	return out, nil
}

// RuleGrid sets the cells of the rules GenAssociationRules derives at the
// same thresholds on a BinArray-shaped bitmap: rule X=i ∧ Y=j sets cell
// (row j, col i). It is what a threshold probe mines, and it builds no
// rule list.
func RuleGrid(ba counts.Backend, seg int, minSupport, minConfidence float64) (*grid.Bitmap, error) {
	bar, err := newRuleBar(ba, seg, minSupport, minConfidence)
	if err != nil {
		return nil, err
	}
	bm, err := grid.New(ba.NY(), ba.NX())
	if err != nil {
		return nil, err
	}
	counts.Occupied(ba, seg, func(x, y int, segCount, cellTotal uint32) {
		if bar.admits(segCount, cellTotal) {
			bm.Set(y, x)
		}
	})
	return bm, nil
}

// Thresholds is the ordered structure of Figure 10: the unique support
// values occurring in the binned data for one criterion value, each with
// the list of unique confidence values of the cells at that support.
// The heuristic optimizer walks supports from low to high, trying only
// thresholds that actually appear in the data.
type Thresholds struct {
	supports []float64
	// confsAt[i] holds the sorted unique confidences of cells whose
	// support equals supports[i].
	confsAt [][]float64
	// cells holds (support, confidence) per occupied cell, sorted by
	// support then confidence, for at-or-above queries.
	cells []supConf
}

type supConf struct{ sup, conf float64 }

// NewThresholds scans the BinArray once and builds the threshold
// structure for criterion value seg.
func NewThresholds(ba counts.Backend, seg int) (*Thresholds, error) {
	if seg < 0 || seg >= ba.NSeg() {
		return nil, fmt.Errorf("engine: criterion value %d out of range 0..%d", seg, ba.NSeg()-1)
	}
	t := &Thresholds{}
	n := float64(ba.N())
	if n == 0 {
		return t, nil
	}
	counts.Occupied(ba, seg, func(x, y int, segCount, cellTotal uint32) {
		t.cells = append(t.cells, supConf{
			sup:  float64(segCount) / n,
			conf: float64(segCount) / float64(cellTotal),
		})
	})
	sort.Slice(t.cells, func(i, j int) bool {
		if t.cells[i].sup != t.cells[j].sup {
			return t.cells[i].sup < t.cells[j].sup
		}
		return t.cells[i].conf < t.cells[j].conf
	})
	for i := 0; i < len(t.cells); {
		j := i
		sup := t.cells[i].sup
		var confs []float64
		for ; j < len(t.cells) && t.cells[j].sup == sup; j++ {
			if len(confs) == 0 || confs[len(confs)-1] != t.cells[j].conf {
				confs = append(confs, t.cells[j].conf)
			}
		}
		t.supports = append(t.supports, sup)
		t.confsAt = append(t.confsAt, confs)
		i = j
	}
	return t, nil
}

// Supports returns the unique support values in ascending order. The
// returned slice is shared; callers must not modify it.
func (t *Thresholds) Supports() []float64 { return t.supports }

// ConfidencesAt returns the unique confidence values of cells whose
// support equals the i-th unique support. The slice is shared.
func (t *Thresholds) ConfidencesAt(i int) []float64 { return t.confsAt[i] }

// ConfidencesAtOrAbove returns the sorted unique confidence values among
// cells whose support is at least sup — the candidate confidence
// thresholds that can change the rule set once the support threshold is
// fixed. As the paper observes, the variability of confidences shrinks as
// support rises.
func (t *Thresholds) ConfidencesAtOrAbove(sup float64) []float64 {
	start := sort.Search(len(t.cells), func(i int) bool { return t.cells[i].sup >= sup })
	seen := make(map[float64]struct{})
	var out []float64
	for _, sc := range t.cells[start:] {
		if _, dup := seen[sc.conf]; !dup {
			seen[sc.conf] = struct{}{}
			out = append(out, sc.conf)
		}
	}
	sort.Float64s(out)
	return out
}

// NumCells reports how many occupied cells contributed to the structure.
func (t *Thresholds) NumCells() int { return len(t.cells) }
