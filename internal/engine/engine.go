// Package engine implements the special-purpose association rule engine
// of paper §3.2 (Figure 3): mining two-dimensional association rules
// directly from the BinArray in a single scan of its cells, plus the
// per-criterion index of §3.7 (Figure 10) that the heuristic optimizer
// searches and every threshold probe sets its rule grid from.
//
// Because the BinArray is retained in memory, applying different support
// or confidence thresholds — the "re-mining" of the threshold search —
// never touches the source data again.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// checkSeg reports a criterion value outside the backend's range.
func checkSeg(ba counts.Backend, seg int) error {
	if seg < 0 || seg >= ba.NSeg() {
		return fmt.Errorf("engine: criterion value %d out of range 0..%d", seg, ba.NSeg()-1)
	}
	return nil
}

// newRuleBar checks the thresholds against n tuples; a NaN threshold is
// out of range.
func newRuleBar(n uint64, minSupport, minConfidence float64) (ruleBar, error) {
	if !(minSupport >= 0 && minSupport <= 1) {
		return ruleBar{}, fmt.Errorf("engine: min support %g outside [0, 1]", minSupport)
	}
	if !(minConfidence >= 0 && minConfidence <= 1) {
		return ruleBar{}, fmt.Errorf("engine: min confidence %g outside [0, 1]", minConfidence)
	}
	return ruleBar{minCount: minSupport * float64(n), minConfidence: minConfidence}, nil
}

// confidence is a cell rule's confidence: its segment count over the
// cell total.
func confidence(segCount, cellTotal uint32) float64 {
	return float64(segCount) / float64(cellTotal)
}

// admits reports whether an occupied cell holding segCount tuples of
// the criterion value among cellTotal is a rule.
func (b ruleBar) admits(segCount, cellTotal uint32) bool {
	return float64(segCount) >= b.minCount && confidence(segCount, cellTotal) >= b.minConfidence
}

// GenAssociationRules derives all cell rules X=i ∧ Y=j ⇒ G=seg whose
// support and confidence meet the thresholds, by checking each occupied
// cell of the BinArray (Figure 3). minSupport is a fraction of N;
// minConfidence is a fraction of the cell total. Rules are returned in
// deterministic row-major cell order.
func GenAssociationRules(ba counts.Backend, seg int, minSupport, minConfidence float64) ([]rules.CellRule, error) {
	if err := checkSeg(ba, seg); err != nil {
		return nil, err
	}
	bar, err := newRuleBar(ba.N(), minSupport, minConfidence)
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
			Confidence: confidence(segCount, cellTotal),
		})
	})
	return out, nil
}

// Thresholds is the per-criterion index: the ordered structure of
// Figure 10 for one criterion value, and the cells a threshold probe
// sets its rule grid from. It is built in one walk of the BinArray and
// never reads it again, so a probe's cost scales with the occupied
// cells that pass its support bar, not with the grid or the backend.
//
// The heuristic optimizer walks the unique supports from low to high,
// and at each one tries only the confidences that occur in the data.
type Thresholds struct {
	nx, ny int
	n      uint64
	// total is the criterion value's tuple count: the sum of its cell
	// counts.
	total uint64
	// cells holds every occupied cell, by segment count descending, so
	// the cells passing a support bar are a prefix.
	cells []ruleCell
	// supports holds the unique supports, ascending.
	supports []float64
	// levels holds the unique confidences, ascending, each with the
	// largest support of a cell that holds it.
	levels []confLevel
}

// ruleCell is one occupied cell of the index, 16 bytes: its rule's
// confidence, exactly as ruleBar.admits computes it, its segment count,
// and its position in a BinArray-shaped bitmap (grid.CellBit).
type ruleCell struct {
	conf  float64
	count uint32
	bit   uint32
}

// confLevel is one unique confidence and the largest support among the
// cells that hold it.
type confLevel struct{ conf, maxSup float64 }

// NewThresholds walks the BinArray once and builds the index for
// criterion value seg. The bitmap positions are uint32, so a grid too
// large to address that way is an error.
func NewThresholds(ba counts.Backend, seg int) (*Thresholds, error) {
	if err := checkSeg(ba, seg); err != nil {
		return nil, err
	}
	nx, ny := ba.NX(), ba.NY()
	// Every position below ny rows of CellBit(nx, 1, 0) bits must fit a
	// uint32.
	const maxBits = math.MaxUint32 + 1
	if int64(nx) > maxBits || int64(ny) > maxBits/int64(grid.CellBit(nx, 1, 0)) {
		return nil, fmt.Errorf("engine: %d×%d grid is too large for the rule index", nx, ny)
	}
	t := &Thresholds{nx: nx, ny: ny, n: ba.N()}
	if t.n == 0 {
		return t, nil
	}
	counts.Occupied(ba, seg, func(x, y int, segCount, cellTotal uint32) {
		t.total += uint64(segCount)
		t.cells = append(t.cells, ruleCell{
			conf:  confidence(segCount, cellTotal),
			count: segCount,
			bit:   uint32(grid.CellBit(nx, y, x)),
		})
	})
	slices.SortFunc(t.cells, func(a, b ruleCell) int { return cmp.Compare(b.count, a.count) })
	// By count descending, a confidence's first cell holds its largest
	// support.
	seen := make(map[float64]struct{})
	for i, c := range t.cells {
		sup := t.support(c)
		if i == 0 || sup != t.supports[len(t.supports)-1] {
			t.supports = append(t.supports, sup)
		}
		if _, dup := seen[c.conf]; !dup {
			seen[c.conf] = struct{}{}
			t.levels = append(t.levels, confLevel{conf: c.conf, maxSup: sup})
		}
	}
	slices.Reverse(t.supports)
	slices.SortFunc(t.levels, func(a, b confLevel) int { return cmp.Compare(a.conf, b.conf) })
	return t, nil
}

// support is a cell rule's support: its segment count over N.
func (t *Thresholds) support(c ruleCell) float64 { return float64(c.count) / float64(t.n) }

// Supports returns the unique support values in ascending order. The
// returned slice is shared; callers must not modify it.
func (t *Thresholds) Supports() []float64 { return t.supports }

// ConfidencesAtOrAbove returns the sorted unique confidence values among
// cells whose support is at least sup — the candidate confidence
// thresholds that can change the rule set once the support threshold is
// fixed. As the paper observes, the variability of confidences shrinks as
// support rises.
func (t *Thresholds) ConfidencesAtOrAbove(sup float64) []float64 {
	var out []float64
	for _, l := range t.levels {
		if l.maxSup >= sup {
			out = append(out, l.conf)
		}
	}
	return out
}

// Total reports the criterion value's tuple count, the sum of its cell
// counts, as of the build.
func (t *Thresholds) Total() uint64 { return t.total }

// Footprint reports the index's occupied cells and the bytes its lists
// hold.
func (t *Thresholds) Footprint() (cells, bytes int) {
	return len(t.cells), 16*cap(t.cells) + 8*cap(t.supports) + 16*cap(t.levels)
}

// RuleGrid sets the cells of the rules GenAssociationRules derives at
// the same thresholds on a BinArray-shaped bitmap: rule X=i ∧ Y=j sets
// cell (row j, col i). It is what a threshold probe mines: a binary
// search finds the cells whose count meets the support bar, and each of
// those that meets the confidence bar sets its bit.
func (t *Thresholds) RuleGrid(minSupport, minConfidence float64) (*grid.Bitmap, error) {
	bar, err := newRuleBar(t.n, minSupport, minConfidence)
	if err != nil {
		return nil, err
	}
	bm, err := grid.New(t.ny, t.nx)
	if err != nil {
		return nil, err
	}
	for _, c := range t.cells[:t.passing(bar)] {
		if c.conf >= bar.minConfidence {
			bm.SetBit(c.bit)
		}
	}
	return bm, nil
}

// passing reports how many cells, a prefix of the list, meet the bar's
// support count. Counts are compared as admits compares them, so the
// prefix is exactly the cells admits passes on support.
func (t *Thresholds) passing(bar ruleBar) int {
	return sort.Search(len(t.cells), func(i int) bool { return float64(t.cells[i].count) < bar.minCount })
}

// SupportGrid sets, on a BinArray-shaped dense grid, the support of
// every cell whose confidence meets minConfidence: the input of
// support-weighted smoothing, which applies the support bar after
// smoothing.
func (t *Thresholds) SupportGrid(minConfidence float64) (*grid.Dense, error) {
	dense, err := grid.NewDense(t.ny, t.nx)
	if err != nil {
		return nil, err
	}
	for _, c := range t.cells {
		if c.conf >= minConfidence {
			r, col := grid.BitCell(t.nx, int(c.bit))
			dense.Set(r, col, t.support(c))
		}
	}
	return dense, nil
}
