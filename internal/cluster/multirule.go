package cluster

import (
	"fmt"

	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// Matcher compiles the multi-attribute rule against a schema, returning
// a predicate over tuples. Compiling once amortizes the attribute-name
// resolution across a verification pass.
func (m MultiRule) Matcher(schema *dataset.Schema) (func(dataset.Tuple) bool, error) {
	idx := make([]int, len(m.Ranges))
	for i, r := range m.Ranges {
		j, err := schema.Index(r.Attr)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	ranges := append([]AttrRange(nil), m.Ranges...)
	return func(t dataset.Tuple) bool {
		for i, r := range ranges {
			v := t[idx[i]]
			if v < r.Lo || v >= r.Hi {
				return false
			}
		}
		return true
	}, nil
}

// MultiRuleStats are the verified measures of a multi-attribute rule
// over a table: its true joint support and confidence (the Combine step
// only estimates them conservatively from the 2D parts).
type MultiRuleStats struct {
	Covered    int     // tuples matching the LHS
	Matching   int     // covered tuples with the criterion value
	Support    float64 // Matching / table size
	Confidence float64 // Matching / Covered
}

// VerifyMultiRule measures a combined rule's true joint support and
// confidence against a table. critIdx is the criterion attribute's
// schema position.
func VerifyMultiRule(m MultiRule, tb *dataset.Table, critIdx int) (MultiRuleStats, error) {
	if tb.Len() == 0 {
		return MultiRuleStats{}, fmt.Errorf("cluster: empty table")
	}
	crit := tb.Schema().At(critIdx)
	if crit.Kind != dataset.Categorical {
		return MultiRuleStats{}, fmt.Errorf("cluster: criterion attribute %q is not categorical", crit.Name)
	}
	segCode, ok := crit.LookupCategory(m.CritValue)
	if !ok {
		return MultiRuleStats{}, fmt.Errorf("cluster: criterion attribute %q has no value %q", crit.Name, m.CritValue)
	}
	match, err := m.Matcher(tb.Schema())
	if err != nil {
		return MultiRuleStats{}, err
	}
	var stats MultiRuleStats
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		if !match(row) {
			continue
		}
		stats.Covered++
		if int(row[critIdx]) == segCode {
			stats.Matching++
		}
	}
	stats.Support = float64(stats.Matching) / float64(tb.Len())
	if stats.Covered > 0 {
		stats.Confidence = float64(stats.Matching) / float64(stats.Covered)
	}
	return stats, nil
}

// ToMulti converts a 2D clustered rule into the multi-attribute form.
func ToMulti(r rules.ClusteredRule) MultiRule {
	m := MultiRule{
		Ranges: []AttrRange{
			{Attr: r.XAttr, Lo: r.XLo, Hi: r.XHi},
			{Attr: r.YAttr, Lo: r.YLo, Hi: r.YHi},
		},
		CritAttr:   r.CritAttr,
		CritValue:  r.CritValue,
		Support:    r.Support,
		Confidence: r.Confidence,
	}
	sortRanges(m.Ranges)
	return m
}

// CombineChain iteratively combines clustered-rule sets from a chain of
// attribute pairs — e.g. (A,B), (B,C), (C,D) — into rules over all the
// attributes involved, realizing the paper's §5 sketch of building
// clusters with an arbitrary number of attributes by repeatedly merging
// overlapping two-attribute clusters. Each step intersects the shared
// attributes' ranges; pairs of rules without a shared attribute or with
// disjoint shared ranges drop out.
func CombineChain(ruleSets ...[]rules.ClusteredRule) ([]MultiRule, error) {
	if len(ruleSets) < 2 {
		return nil, fmt.Errorf("cluster: need at least two rule sets to combine")
	}
	current := make([]MultiRule, len(ruleSets[0]))
	for i, r := range ruleSets[0] {
		current[i] = ToMulti(r)
	}
	for _, nextSet := range ruleSets[1:] {
		next := make([]MultiRule, len(nextSet))
		for i, r := range nextSet {
			next[i] = ToMulti(r)
		}
		current = combineMulti(current, next)
	}
	return current, nil
}

func combineMulti(a, b []MultiRule) []MultiRule {
	var out []MultiRule
	for _, ra := range a {
		for _, rb := range b {
			if ra.CritAttr != rb.CritAttr || ra.CritValue != rb.CritValue {
				continue
			}
			if m, ok := mergeMulti(ra, rb); ok {
				out = append(out, m)
			}
		}
	}
	return out
}

// mergeMulti merges two multi-rules when every shared attribute's ranges
// overlap; shared ranges are intersected, unique ranges carried over.
func mergeMulti(a, b MultiRule) (MultiRule, bool) {
	ranges := map[string]AttrRange{}
	for _, r := range a.Ranges {
		ranges[r.Attr] = r
	}
	shared := 0
	for _, r := range b.Ranges {
		if have, ok := ranges[r.Attr]; ok {
			shared++
			if !rangesOverlap(have.Lo, have.Hi, r.Lo, r.Hi) {
				return MultiRule{}, false
			}
			lo, hi := have.Lo, have.Hi
			if r.Lo > lo {
				lo = r.Lo
			}
			if r.Hi < hi {
				hi = r.Hi
			}
			ranges[r.Attr] = AttrRange{Attr: r.Attr, Lo: lo, Hi: hi}
		} else {
			ranges[r.Attr] = r
		}
	}
	if shared == 0 {
		return MultiRule{}, false
	}
	out := MultiRule{
		CritAttr:   a.CritAttr,
		CritValue:  a.CritValue,
		Support:    minF(a.Support, b.Support),
		Confidence: minF(a.Confidence, b.Confidence),
	}
	for _, r := range ranges {
		out.Ranges = append(out.Ranges, r)
	}
	sortRanges(out.Ranges)
	return out, true
}

func sortRanges(rs []AttrRange) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Attr < rs[j-1].Attr; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
