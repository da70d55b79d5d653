// Package c45 is a from-scratch implementation of a C4.5-style decision
// tree classifier (Quinlan 1993, reference [17] of the ARCS paper) and
// the C4.5RULES rule extractor, used as the comparison baseline in the
// paper's evaluation (§4.2, Figures 11-14, Table 2).
//
// The implementation follows the published algorithm: gain-ratio split
// selection, binary threshold splits on continuous attributes with
// candidate cuts between class changes, multiway splits on categorical
// attributes, a minimum-instances constraint, and pessimistic
// (confidence-bound) error pruning. C4.5RULES converts root-to-leaf paths
// into rules and generalizes them by dropping conditions that do not
// increase the pessimistic error estimate.
package c45

import (
	"fmt"
	"math"
	"sort"

	"arcs/internal/dataset"
	"arcs/internal/stats"
)

// Config controls tree induction.
type Config struct {
	// MinLeaf is the minimum number of training tuples in at least two
	// branches of a split (C4.5's -m). Zero means 2.
	MinLeaf int
	// CF is the pruning confidence factor (C4.5's -c). Zero means 0.25;
	// negative disables pruning.
	CF float64
	// MaxDepth bounds tree depth; zero means unlimited.
	MaxDepth int
	// RuleEvalCap bounds the number of training tuples C4.5RULES uses
	// when estimating rule errors during generalization and subset
	// selection (the original evaluates against everything, which is a
	// large part of why the paper measured exponentially growing
	// C4.5RULES times). Zero means 10000; negative means unlimited.
	RuleEvalCap int
}

func (c Config) withDefaults() Config {
	if c.MinLeaf == 0 {
		c.MinLeaf = 2
	}
	if c.CF == 0 {
		c.CF = 0.25
	}
	if c.RuleEvalCap == 0 {
		c.RuleEvalCap = 10_000
	}
	return c
}

// Node is a decision tree node. Leaves have Attr == -1.
type Node struct {
	// Attr is the split attribute's schema index, or -1 for a leaf.
	Attr int
	// Categorical distinguishes multiway category splits from binary
	// threshold splits.
	Categorical bool
	// Threshold is the split point for continuous attributes: values
	// <= Threshold descend into Children[0], the rest into Children[1].
	Threshold float64
	// Children are the subtrees: two for continuous splits, one per
	// category code for categorical splits.
	Children []*Node

	// Class is the majority class at this node.
	Class int
	// Counts is the training class distribution at this node.
	Counts []float64
}

// n returns the number of training tuples at the node.
func (nd *Node) n() float64 {
	var s float64
	for _, c := range nd.Counts {
		s += c
	}
	return s
}

// trainErrors returns the number of training tuples the node mislabels
// when treated as a leaf.
func (nd *Node) trainErrors() float64 {
	return nd.n() - nd.Counts[nd.Class]
}

// IsLeaf reports whether the node is a leaf.
func (nd *Node) IsLeaf() bool { return nd.Attr < 0 }

// Tree is a trained classifier.
type Tree struct {
	Root     *Node
	schema   *dataset.Schema
	classIdx int
	nClasses int
	cfg      Config
}

// Train induces a C4.5 tree predicting classAttr from every other
// attribute of the table.
func Train(tb *dataset.Table, classAttr string, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	classIdx, err := tb.Schema().Index(classAttr)
	if err != nil {
		return nil, err
	}
	if tb.Schema().At(classIdx).Kind != dataset.Categorical {
		return nil, fmt.Errorf("c45: class attribute %q must be categorical", classAttr)
	}
	nClasses := tb.Schema().At(classIdx).NumCategories()
	if nClasses < 2 {
		return nil, fmt.Errorf("c45: class attribute %q has %d categories; need at least 2", classAttr, nClasses)
	}
	if tb.Len() == 0 {
		return nil, fmt.Errorf("c45: empty training set")
	}
	t := &Tree{schema: tb.Schema(), classIdx: classIdx, nClasses: nClasses, cfg: cfg}
	idx := make([]int, tb.Len())
	for i := range idx {
		idx[i] = i
	}
	t.Root = t.grow(tb, idx, 0, nil)
	if cfg.CF >= 0 {
		t.prune(t.Root)
	}
	return t, nil
}

// classCounts tallies the class distribution of the rows in idx.
func (t *Tree) classCounts(tb *dataset.Table, idx []int) []float64 {
	counts := make([]float64, t.nClasses)
	for _, i := range idx {
		counts[int(tb.Row(i)[t.classIdx])]++
	}
	return counts
}

func majority(counts []float64) int {
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

// grow recursively induces the subtree over the rows in idx. ancestors
// is the set of attributes split on along the path from the root.
func (t *Tree) grow(tb *dataset.Table, idx []int, depth int, ancestors map[int]bool) *Node {
	counts := t.classCounts(tb, idx)
	node := &Node{Attr: -1, Counts: counts, Class: majority(counts)}
	if len(idx) < 2*t.cfg.MinLeaf || stats.Entropy(counts) == 0 {
		return node
	}
	if t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth {
		return node
	}
	attr, thr, gainRatio := t.bestSplit(tb, idx, counts, true, nil)
	if attr < 0 || gainRatio <= 0 {
		// Fallback for large impure nodes where every penalized gain is
		// non-positive. This happens on XOR-like interactions (e.g. the
		// quadrant of the paper's Function 2 around age 60 × salary 75k,
		// where class flips across both boundaries at once): each single
		// split is individually worthless, but a near-zero-gain split
		// breaks the symmetry and the children become separable. Two
		// gates keep the fallback sound: it only fires on large nodes
		// (small noisy nodes would grow memorization subtrees pruning
		// cannot always remove), and it only considers attributes
		// already split on along the path — interacting attributes have
		// invariably appeared by then, while fresh high-multiplicity
		// noise attributes, which an unpenalized comparison would
		// otherwise favor, stay excluded.
		if len(idx) < 64 || len(ancestors) == 0 {
			return node
		}
		attr, thr, gainRatio = t.bestSplit(tb, idx, counts, false, ancestors)
		if attr < 0 || gainRatio <= 0 {
			return node
		}
	}
	childAncestors := ancestors
	if !ancestors[attr] {
		childAncestors = make(map[int]bool, len(ancestors)+1)
		for a := range ancestors {
			childAncestors[a] = true
		}
		childAncestors[attr] = true
	}
	node.Attr = attr
	if t.schema.At(attr).Kind == dataset.Categorical {
		node.Categorical = true
		nCats := t.schema.At(attr).NumCategories()
		parts := make([][]int, nCats)
		for _, i := range idx {
			c := int(tb.Row(i)[attr])
			parts[c] = append(parts[c], i)
		}
		node.Children = make([]*Node, nCats)
		for c, part := range parts {
			if len(part) == 0 {
				// Empty branch inherits the parent's majority class.
				node.Children[c] = &Node{Attr: -1, Counts: make([]float64, t.nClasses), Class: node.Class}
				continue
			}
			node.Children[c] = t.grow(tb, part, depth+1, childAncestors)
		}
	} else {
		node.Threshold = thr
		var left, right []int
		for _, i := range idx {
			if tb.Row(i)[attr] <= thr {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		node.Children = []*Node{t.grow(tb, left, depth+1, childAncestors), t.grow(tb, right, depth+1, childAncestors)}
	}
	return node
}

// bestSplit evaluates every attribute and returns the best (attr,
// threshold, gain ratio); attr is -1 when no admissible split exists.
// Following C4.5, only splits whose information gain is at least the
// average gain of admissible splits compete on gain ratio, which guards
// against the ratio's bias toward near-trivial splits. With penalized
// set, continuous splits are charged the Release-8 cut-choice cost; the
// unpenalized form serves the large-node fallback in grow.
func (t *Tree) bestSplit(tb *dataset.Table, idx []int, parentCounts []float64, penalized bool, allowed map[int]bool) (int, float64, float64) {
	type cand struct {
		attr  int
		thr   float64
		gain  float64
		ratio float64
	}
	var cands []cand
	for attr := 0; attr < t.schema.Len(); attr++ {
		if attr == t.classIdx {
			continue
		}
		if allowed != nil && !allowed[attr] {
			continue
		}
		if t.schema.At(attr).Kind == dataset.Categorical {
			if c, ok := t.categoricalSplit(tb, idx, attr); ok {
				cands = append(cands, cand{attr: attr, gain: c.gain, ratio: c.ratio})
			}
		} else {
			if c, ok := t.continuousSplit(tb, idx, attr, parentCounts, penalized); ok {
				cands = append(cands, cand{attr: attr, thr: c.thr, gain: c.gain, ratio: c.ratio})
			}
		}
	}
	if len(cands) == 0 {
		return -1, 0, 0
	}
	var avgGain float64
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))
	best := -1
	for i, c := range cands {
		if c.gain+1e-12 < avgGain {
			continue
		}
		if best < 0 || c.ratio > cands[best].ratio {
			best = i
		}
	}
	if best < 0 {
		return -1, 0, 0
	}
	return cands[best].attr, cands[best].thr, cands[best].ratio
}

type splitEval struct {
	thr   float64
	gain  float64
	ratio float64
}

// categoricalSplit evaluates the multiway split on a categorical
// attribute.
func (t *Tree) categoricalSplit(tb *dataset.Table, idx []int, attr int) (splitEval, bool) {
	nCats := t.schema.At(attr).NumCategories()
	if nCats < 2 {
		return splitEval{}, false
	}
	children := make([][]float64, nCats)
	for c := range children {
		children[c] = make([]float64, t.nClasses)
	}
	for _, i := range idx {
		row := tb.Row(i)
		children[int(row[attr])][int(row[t.classIdx])]++
	}
	// C4.5's -m: at least two branches with MinLeaf tuples.
	branches := 0
	for _, ch := range children {
		var n float64
		for _, v := range ch {
			n += v
		}
		if n >= float64(t.cfg.MinLeaf) {
			branches++
		}
	}
	if branches < 2 {
		return splitEval{}, false
	}
	gain := stats.InfoGain(children)
	ratio := stats.GainRatio(children)
	if gain <= 0 || ratio <= 0 {
		return splitEval{}, false
	}
	return splitEval{gain: gain, ratio: ratio}, true
}

// continuousSplit finds the best binary threshold on a continuous
// attribute, scanning cut points between consecutive distinct values.
// Following C4.5 Release 8 (Quinlan 1996), the information gain of a
// continuous split is charged log2(#candidate cuts)/|D| — the MDL cost
// of transmitting which cut was chosen. Without this correction an
// irrelevant continuous attribute wins nodes by sheer multiplicity of
// candidate thresholds (thousands of cuts versus a handful of category
// splits), fragmenting the tree into noise.
func (t *Tree) continuousSplit(tb *dataset.Table, idx []int, attr int, parentCounts []float64, penalized bool) (splitEval, bool) {
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool {
		return tb.Row(sorted[a])[attr] < tb.Row(sorted[b])[attr]
	})
	total := float64(len(sorted))
	parentH := stats.Entropy(parentCounts)

	// Count the candidate cuts (boundaries between distinct values) for
	// the Release-8 correction.
	cuts := 0
	for i := 0; i+1 < len(sorted); i++ {
		if tb.Row(sorted[i])[attr] != tb.Row(sorted[i+1])[attr] {
			cuts++
		}
	}
	if cuts == 0 {
		return splitEval{}, false
	}
	penalty := 0.0
	if penalized {
		penalty = math.Log2(float64(cuts)) / total
	}

	left := make([]float64, t.nClasses)
	right := append([]float64(nil), parentCounts...)
	var best splitEval
	found := false
	nLeft := 0.0
	for i := 0; i+1 < len(sorted); i++ {
		row := tb.Row(sorted[i])
		cls := int(row[t.classIdx])
		left[cls]++
		right[cls]--
		nLeft++
		v, vNext := row[attr], tb.Row(sorted[i+1])[attr]
		if v == vNext {
			continue
		}
		if nLeft < float64(t.cfg.MinLeaf) || total-nLeft < float64(t.cfg.MinLeaf) {
			continue
		}
		// Entropy of the two sides, with the cut-choice penalty.
		hL, hR := stats.Entropy(left), stats.Entropy(right)
		gain := parentH - (nLeft/total)*hL - ((total-nLeft)/total)*hR - penalty
		if gain <= 0 {
			continue
		}
		pL := nLeft / total
		splitInfo := -pL*math.Log2(pL) - (1-pL)*math.Log2(1-pL)
		if splitInfo <= 0 {
			continue
		}
		ratio := gain / splitInfo
		if !found || ratio > best.ratio {
			best = splitEval{thr: (v + vNext) / 2, gain: gain, ratio: ratio}
			found = true
		}
	}
	return best, found
}

// Classify predicts the class code of a tuple.
func (t *Tree) Classify(row dataset.Tuple) int {
	nd := t.Root
	for !nd.IsLeaf() {
		if nd.Categorical {
			c := int(row[nd.Attr])
			if c < 0 || c >= len(nd.Children) {
				return nd.Class
			}
			nd = nd.Children[c]
		} else if row[nd.Attr] <= nd.Threshold {
			nd = nd.Children[0]
		} else {
			nd = nd.Children[1]
		}
	}
	return nd.Class
}

// ErrorRate measures the misclassification fraction on a table.
func (t *Tree) ErrorRate(tb *dataset.Table) float64 {
	if tb.Len() == 0 {
		return 0
	}
	wrong := 0
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		if t.Classify(row) != int(row[t.classIdx]) {
			wrong++
		}
	}
	return float64(wrong) / float64(tb.Len())
}

// NumLeaves counts the tree's leaves.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(nd *Node) int {
	if nd.IsLeaf() {
		return 1
	}
	n := 0
	for _, ch := range nd.Children {
		n += countLeaves(ch)
	}
	return n
}

// Depth reports the maximum root-to-leaf depth.
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(nd *Node) int {
	if nd.IsLeaf() {
		return 0
	}
	max := 0
	for _, ch := range nd.Children {
		if d := depth(ch); d > max {
			max = d
		}
	}
	return max + 1
}
