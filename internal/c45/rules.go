package c45

import (
	"fmt"
	"sort"
	"strings"

	"arcs/internal/dataset"
)

// Cond is one condition of an extracted rule.
type Cond struct {
	Attr        int
	Categorical bool
	// Cat is the required category code for categorical conditions.
	Cat int
	// Le selects value <= Threshold (true) or value > Threshold (false)
	// for continuous conditions.
	Le        bool
	Threshold float64
}

// matches reports whether a tuple satisfies the condition.
func (c Cond) matches(row dataset.Tuple) bool {
	if c.Categorical {
		return int(row[c.Attr]) == c.Cat
	}
	if c.Le {
		return row[c.Attr] <= c.Threshold
	}
	return row[c.Attr] > c.Threshold
}

// Rule is a conjunctive classification rule produced by C4.5RULES.
type Rule struct {
	Conds []Cond
	Class int
}

// Matches reports whether a tuple satisfies every condition.
func (r Rule) Matches(row dataset.Tuple) bool {
	for _, c := range r.Conds {
		if !c.matches(row) {
			return false
		}
	}
	return true
}

// render formats the rule against a schema.
func (r Rule) render(schema *dataset.Schema, classIdx int) string {
	var parts []string
	for _, c := range r.Conds {
		a := schema.At(c.Attr)
		if c.Categorical {
			parts = append(parts, fmt.Sprintf("%s = %s", a.Name, a.Category(c.Cat)))
		} else if c.Le {
			parts = append(parts, fmt.Sprintf("%s <= %g", a.Name, c.Threshold))
		} else {
			parts = append(parts, fmt.Sprintf("%s > %g", a.Name, c.Threshold))
		}
	}
	lhs := strings.Join(parts, " AND ")
	if lhs == "" {
		lhs = "true"
	}
	return fmt.Sprintf("%s => %s = %s", lhs, schema.At(classIdx).Name,
		schema.At(classIdx).Category(r.Class))
}

// RuleSet is an ordered rule list with a default class, the final output
// of C4.5RULES. Classification takes the first matching rule.
type RuleSet struct {
	Rules   []Rule
	Default int

	schema   *dataset.Schema
	classIdx int
}

// Classify predicts the class of a tuple.
func (rs *RuleSet) Classify(row dataset.Tuple) int {
	for _, r := range rs.Rules {
		if r.Matches(row) {
			return r.Class
		}
	}
	return rs.Default
}

// ErrorRate measures the misclassification fraction on a table.
func (rs *RuleSet) ErrorRate(tb *dataset.Table) float64 {
	if tb.Len() == 0 {
		return 0
	}
	wrong := 0
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		if rs.Classify(row) != int(row[rs.classIdx]) {
			wrong++
		}
	}
	return float64(wrong) / float64(tb.Len())
}

// Strings renders every rule plus the default for reports.
func (rs *RuleSet) Strings() []string {
	out := make([]string, 0, len(rs.Rules)+1)
	for _, r := range rs.Rules {
		out = append(out, r.render(rs.schema, rs.classIdx))
	}
	out = append(out, fmt.Sprintf("default => %s = %s",
		rs.schema.At(rs.classIdx).Name, rs.schema.At(rs.classIdx).Category(rs.Default)))
	return out
}

// ExtractRules converts the tree into a generalized rule set in the
// manner of C4.5RULES: each root-to-leaf path becomes a rule; conditions
// are greedily dropped while the rule's pessimistic error on the training
// data does not increase; duplicate and strictly-worse rules are removed;
// rules are ordered by ascending pessimistic error, and the default class
// is the majority class of the training tuples no rule covers.
func (t *Tree) ExtractRules(tb *dataset.Table) *RuleSet {
	// Error estimation during generalization and selection runs against
	// a strided subsample when the training set exceeds RuleEvalCap.
	eval := tb
	if cap := t.cfg.RuleEvalCap; cap > 0 && tb.Len() > cap {
		stride := tb.Len() / cap
		idx := make([]int, 0, cap)
		for i := 0; i < tb.Len() && len(idx) < cap; i += stride {
			idx = append(idx, i)
		}
		eval = tb.Select(idx)
	}
	var raw []Rule
	var walk func(nd *Node, conds []Cond)
	walk = func(nd *Node, conds []Cond) {
		if nd.IsLeaf() {
			if nd.n() == 0 {
				return // empty categorical branch
			}
			raw = append(raw, Rule{Conds: append([]Cond(nil), conds...), Class: nd.Class})
			return
		}
		if nd.Categorical {
			for c, ch := range nd.Children {
				walk(ch, append(conds, Cond{Attr: nd.Attr, Categorical: true, Cat: c}))
			}
		} else {
			walk(nd.Children[0], append(conds, Cond{Attr: nd.Attr, Le: true, Threshold: nd.Threshold}))
			walk(nd.Children[1], append(conds, Cond{Attr: nd.Attr, Le: false, Threshold: nd.Threshold}))
		}
	}
	walk(t.Root, nil)

	// Generalize each rule by dropping conditions.
	type scored struct {
		rule Rule
		pess float64
	}
	var generalized []scored
	for _, r := range raw {
		rule := r
		for improved := true; improved && len(rule.Conds) > 0; {
			improved = false
			base := t.pessimisticRuleError(eval, rule)
			for drop := range rule.Conds {
				cand := Rule{Class: rule.Class}
				cand.Conds = append(cand.Conds, rule.Conds[:drop]...)
				cand.Conds = append(cand.Conds, rule.Conds[drop+1:]...)
				if t.pessimisticRuleError(eval, cand) <= base+1e-9 {
					rule = cand
					improved = true
					break
				}
			}
		}
		generalized = append(generalized, scored{rule: rule, pess: t.pessimisticRuleError(eval, rule)})
	}

	// Deduplicate (generalization often collapses sibling paths).
	seen := make(map[string]bool)
	var unique []scored
	for _, s := range generalized {
		key := ruleKey(s.rule)
		if !seen[key] {
			seen[key] = true
			unique = append(unique, s)
		}
	}
	sort.SliceStable(unique, func(i, j int) bool { return unique[i].pess < unique[j].pess })

	// Rule subset selection (C4.5RULES performs an MDL-guided subset
	// search per class; we use the equivalent greedy form): walk the
	// rules from most to least reliable and keep a rule only when the
	// exceptions it fixes outweigh both the exceptions it introduces and
	// the cost of encoding the rule itself — approximated as one
	// exception per condition. This is what collapses thousands of leaf
	// paths (many isolating a handful of noisy tuples each) into the
	// small rule sets the paper reports.
	rs := &RuleSet{schema: t.schema, classIdx: t.classIdx}
	coveredBy := make([]bool, eval.Len())
	for _, s := range unique {
		correct, wrong := 0, 0
		var newly []int
		for i := 0; i < eval.Len(); i++ {
			if coveredBy[i] {
				continue
			}
			row := eval.Row(i)
			if !s.rule.Matches(row) {
				continue
			}
			newly = append(newly, i)
			if int(row[t.classIdx]) == s.rule.Class {
				correct++
			} else {
				wrong++
			}
		}
		encodingCost := len(s.rule.Conds) + 1
		if correct-wrong > encodingCost {
			rs.Rules = append(rs.Rules, s.rule)
			for _, i := range newly {
				coveredBy[i] = true
			}
		}
	}

	// Default class: majority among uncovered training tuples, falling
	// back to the global majority.
	counts := make([]float64, t.nClasses)
	covered := 0
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		matched := false
		for _, r := range rs.Rules {
			if r.Matches(row) {
				matched = true
				break
			}
		}
		if !matched {
			counts[int(row[t.classIdx])]++
		} else {
			covered++
		}
	}
	if covered == tb.Len() {
		rs.Default = t.Root.Class
	} else {
		rs.Default = majority(counts)
	}
	return rs
}

// pessimisticRuleError computes the upper confidence bound on the rule's
// error over the training tuples it covers. Rules covering nothing are
// maximally pessimistic.
func (t *Tree) pessimisticRuleError(tb *dataset.Table, r Rule) float64 {
	var n, e float64
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		if !r.Matches(row) {
			continue
		}
		n++
		if int(row[t.classIdx]) != r.Class {
			e++
		}
	}
	if n == 0 {
		return 1
	}
	return upperErrorBound(e, n, t.cfg.CF) / n
}

func ruleKey(r Rule) string {
	conds := append([]Cond(nil), r.Conds...)
	sort.Slice(conds, func(i, j int) bool {
		a, b := conds[i], conds[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Categorical != b.Categorical {
			return a.Categorical
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Le != b.Le {
			return a.Le
		}
		return a.Threshold < b.Threshold
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "c%d:", r.Class)
	for _, c := range conds {
		fmt.Fprintf(&sb, "%d/%v/%d/%v/%g;", c.Attr, c.Categorical, c.Cat, c.Le, c.Threshold)
	}
	return sb.String()
}
