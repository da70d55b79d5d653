// Package apriori implements the classical Apriori association rule
// mining algorithm of Agrawal, Imielinski and Swami (SIGMOD 1993) —
// reference [3] of the ARCS paper — over binned attribute=value items.
//
// ARCS's special-purpose engine replaces this general algorithm for the
// two-dimensional case (paper §3.2): Apriori makes one pass over the data
// per itemset size and must re-scan everything when thresholds change,
// whereas the BinArray supports instantaneous re-mining. This package
// exists as the "existing algorithms" baseline the paper contrasts with,
// and as a general-purpose miner for rules with more than two LHS items.
package apriori

import (
	"fmt"
	"sort"
	"strings"

	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// Config controls a mining run.
type Config struct {
	// MinSupport is the minimum itemset frequency as a fraction of the
	// tuple count.
	MinSupport float64
	// MinConfidence is the minimum rule confidence.
	MinConfidence float64
	// MaxItemsetSize bounds the size of frequent itemsets explored
	// (and therefore rule length). Zero means 3.
	MaxItemsetSize int
}

func (c Config) validate() error {
	if c.MinSupport < 0 || c.MinSupport > 1 {
		return fmt.Errorf("apriori: min support %g outside [0, 1]", c.MinSupport)
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return fmt.Errorf("apriori: min confidence %g outside [0, 1]", c.MinConfidence)
	}
	if c.MaxItemsetSize < 0 {
		return fmt.Errorf("apriori: negative max itemset size %d", c.MaxItemsetSize)
	}
	return nil
}

// itemsetKey is a canonical string form of an itemset, usable as a map
// key.
func itemsetKey(is rules.Itemset) string {
	var b strings.Builder
	for i, it := range is {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d=%d", it.Attr, it.Val)
	}
	return b.String()
}

// normalize sorts an itemset by (Attr, Val).
func normalize(is rules.Itemset) rules.Itemset {
	sort.Slice(is, func(i, j int) bool {
		if is[i].Attr != is[j].Attr {
			return is[i].Attr < is[j].Attr
		}
		return is[i].Val < is[j].Val
	})
	return is
}

// contains reports whether the (sorted) itemset covers item it.
func contains(is rules.Itemset, it rules.Item) bool {
	for _, x := range is {
		if x == it {
			return true
		}
	}
	return false
}

// tupleHas reports whether a tuple matches every item of the itemset.
// Values are compared after truncation to int, matching the binned
// encoding.
func tupleHas(t dataset.Tuple, is rules.Itemset) bool {
	for _, it := range is {
		if int(t[it.Attr]) != it.Val {
			return false
		}
	}
	return true
}

// FrequentItemsets mines all itemsets meeting MinSupport, level by level:
// candidate generation by joining (k-1)-itemsets sharing a prefix, the
// Apriori pruning of candidates with infrequent subsets, and one data
// pass per level to count support.
func FrequentItemsets(src dataset.Source, cfg Config) (map[string]float64, []rules.Itemset, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	maxK := cfg.MaxItemsetSize
	if maxK == 0 {
		maxK = 3
	}
	n, err := dataset.Count(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return map[string]float64{}, nil, nil
	}
	minCount := cfg.MinSupport * float64(n)

	// Level 1: count single items.
	counts := make(map[rules.Item]int)
	err = dataset.ForEach(src, func(t dataset.Tuple) error {
		for attr, v := range t {
			counts[rules.Item{Attr: attr, Val: int(v)}]++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	support := make(map[string]float64)
	var frequent []rules.Itemset
	var level []rules.Itemset
	for it, c := range counts {
		if float64(c) >= minCount {
			is := rules.Itemset{it}
			level = append(level, is)
			support[itemsetKey(is)] = float64(c) / float64(n)
		}
	}
	sortItemsets(level)
	frequent = append(frequent, level...)

	for k := 2; k <= maxK && len(level) > 1; k++ {
		candidates := generateCandidates(level, support)
		if len(candidates) == 0 {
			break
		}
		// One pass to count all candidates of this level.
		candCounts := make([]int, len(candidates))
		err = dataset.ForEach(src, func(t dataset.Tuple) error {
			for i, cand := range candidates {
				if tupleHas(t, cand) {
					candCounts[i]++
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		level = level[:0]
		for i, cand := range candidates {
			if float64(candCounts[i]) >= minCount {
				level = append(level, cand)
				support[itemsetKey(cand)] = float64(candCounts[i]) / float64(n)
			}
		}
		sortItemsets(level)
		frequent = append(frequent, level...)
	}
	return support, frequent, nil
}

// generateCandidates joins k-1 itemsets differing only in their last item
// and prunes candidates with an infrequent (k-1)-subset.
func generateCandidates(level []rules.Itemset, support map[string]float64) []rules.Itemset {
	var out []rules.Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			if !samePrefix(a, b) {
				continue
			}
			last := b[len(b)-1]
			// Items must come from distinct attributes: an attribute
			// appears at most once in a rule (paper §2.1).
			if last.Attr == a[len(a)-1].Attr {
				continue
			}
			cand := normalize(append(append(rules.Itemset{}, a...), last))
			if hasDuplicateAttr(cand) {
				continue
			}
			if !allSubsetsFrequent(cand, support) {
				continue
			}
			out = append(out, cand)
		}
	}
	// The join can produce duplicates after normalization.
	seen := make(map[string]bool, len(out))
	dedup := out[:0]
	for _, c := range out {
		k := itemsetKey(c)
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, c)
		}
	}
	return dedup
}

func samePrefix(a, b rules.Itemset) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasDuplicateAttr(is rules.Itemset) bool {
	for i := 1; i < len(is); i++ {
		if is[i].Attr == is[i-1].Attr {
			return true
		}
	}
	return false
}

func allSubsetsFrequent(cand rules.Itemset, support map[string]float64) bool {
	if len(cand) <= 2 {
		return true
	}
	sub := make(rules.Itemset, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if _, ok := support[itemsetKey(sub)]; !ok {
			return false
		}
	}
	return true
}

func sortItemsets(level []rules.Itemset) {
	sort.Slice(level, func(i, j int) bool {
		a, b := level[i], level[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k].Attr != b[k].Attr {
				return a[k].Attr < b[k].Attr
			}
			if a[k].Val != b[k].Val {
				return a[k].Val < b[k].Val
			}
		}
		return len(a) < len(b)
	})
}

// Mine runs the full Apriori pipeline: frequent itemsets, then rule
// generation. For every frequent itemset Z and non-empty proper subset X,
// the rule X ⇒ Z∖X is emitted when its confidence sup(Z)/sup(X) meets
// the threshold. Rules are returned sorted by descending confidence then
// support.
func Mine(src dataset.Source, cfg Config) ([]rules.Rule, error) {
	support, frequent, err := FrequentItemsets(src, cfg)
	if err != nil {
		return nil, err
	}
	var out []rules.Rule
	for _, z := range frequent {
		if len(z) < 2 {
			continue
		}
		supZ := support[itemsetKey(z)]
		forEachProperSubset(z, func(x rules.Itemset) {
			supX, ok := support[itemsetKey(x)]
			if !ok || supX == 0 {
				return
			}
			conf := supZ / supX
			if conf < cfg.MinConfidence {
				return
			}
			y := make(rules.Itemset, 0, len(z)-len(x))
			for _, it := range z {
				if !contains(x, it) {
					y = append(y, it)
				}
			}
			r := rules.Rule{
				X: append(rules.Itemset{}, x...), Y: y,
				Support: supZ, Confidence: conf,
			}
			// Lift needs sup(Y); it is known when Y itself was frequent.
			if supY, ok := support[itemsetKey(y)]; ok && supY > 0 {
				r.Lift = conf / supY
			}
			out = append(out, r)
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return itemsetKey(out[i].X) < itemsetKey(out[j].X)
	})
	return out, nil
}

// forEachProperSubset enumerates the non-empty proper subsets of z.
func forEachProperSubset(z rules.Itemset, fn func(rules.Itemset)) {
	n := len(z)
	for mask := 1; mask < (1<<n)-1; mask++ {
		sub := make(rules.Itemset, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, z[i])
			}
		}
		fn(sub)
	}
}
