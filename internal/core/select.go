package core

import (
	"fmt"
	"sort"

	"arcs/internal/binning"
	"arcs/internal/dataset"
	"arcs/internal/stats"
)

// AttributeScore is one candidate LHS attribute with its information gain
// against the criterion attribute.
type AttributeScore struct {
	Attr string
	Gain float64
}

// SelectAttributePair ranks the quantitative attributes of a table by the
// information gain of their binned values against the criterion attribute
// and returns the two highest-ranked, realizing the paper's §5 suggestion
// of using information-gain measures to choose the segmentation
// attributes (in place of the user, or of factor analysis / PCA).
//
// tb should be a representative sample; bins controls the granularity of
// the gain estimate (e.g. 10).
func SelectAttributePair(tb *dataset.Table, critAttr string, bins int) (x, y string, scores []AttributeScore, err error) {
	if bins <= 1 {
		return "", "", nil, fmt.Errorf("core: need at least 2 bins for attribute selection, got %d", bins)
	}
	schema := tb.Schema()
	critIdx, err := schema.Index(critAttr)
	if err != nil {
		return "", "", nil, err
	}
	crit := schema.At(critIdx)
	if crit.Kind != dataset.Categorical {
		return "", "", nil, fmt.Errorf("core: criterion attribute %q must be categorical", critAttr)
	}
	nseg := crit.NumCategories()
	if nseg == 0 || tb.Len() == 0 {
		return "", "", nil, fmt.Errorf("core: no data to select attributes from")
	}
	candidates := schema.QuantitativeNames()
	if len(candidates) < 2 {
		return "", "", nil, fmt.Errorf("core: need at least 2 quantitative attributes, have %d", len(candidates))
	}
	for _, name := range candidates {
		idx := schema.MustIndex(name)
		b, err := binning.NewEquiWidthFromData(tb.Column(idx), bins)
		if err != nil {
			return "", "", nil, err
		}
		children := make([][]float64, b.NumBins())
		for i := range children {
			children[i] = make([]float64, nseg)
		}
		for r := 0; r < tb.Len(); r++ {
			row := tb.Row(r)
			children[b.Bin(row[idx])][int(row[critIdx])]++
		}
		scores = append(scores, AttributeScore{Attr: name, Gain: stats.InfoGain(children)})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Gain != scores[j].Gain {
			return scores[i].Gain > scores[j].Gain
		}
		return scores[i].Attr < scores[j].Attr
	})
	return scores[0].Attr, scores[1].Attr, scores, nil
}

// PairScore is one candidate LHS attribute pair with the information
// gain of its joint binned partition against the criterion.
type PairScore struct {
	X, Y string
	Gain float64
}

// SelectAttributePairJoint evaluates every pair of quantitative
// attributes by the information gain of their joint bins × bins
// partition against the criterion, and returns the best pair. Unlike
// the univariate ranking of SelectAttributePair, this detects attributes
// that are individually uninformative but jointly decisive — exactly the
// structure of the paper's Function 2, where the group depends on the
// (age, salary) combination while the marginal distribution over age
// alone is flat.
func SelectAttributePairJoint(tb *dataset.Table, critAttr string, bins int) (x, y string, scores []PairScore, err error) {
	if bins <= 1 {
		return "", "", nil, fmt.Errorf("core: need at least 2 bins for attribute selection, got %d", bins)
	}
	schema := tb.Schema()
	critIdx, err := schema.Index(critAttr)
	if err != nil {
		return "", "", nil, err
	}
	crit := schema.At(critIdx)
	if crit.Kind != dataset.Categorical {
		return "", "", nil, fmt.Errorf("core: criterion attribute %q must be categorical", critAttr)
	}
	nseg := crit.NumCategories()
	if nseg == 0 || tb.Len() == 0 {
		return "", "", nil, fmt.Errorf("core: no data to select attributes from")
	}
	candidates := schema.QuantitativeNames()
	if len(candidates) < 2 {
		return "", "", nil, fmt.Errorf("core: need at least 2 quantitative attributes, have %d", len(candidates))
	}
	binners := make(map[string]*binning.Binner, len(candidates))
	for _, name := range candidates {
		b, err := binning.NewEquiWidthFromData(tb.Column(schema.MustIndex(name)), bins)
		if err != nil {
			return "", "", nil, err
		}
		binners[name] = b
	}
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			xi := schema.MustIndex(candidates[i])
			yi := schema.MustIndex(candidates[j])
			bx, by := binners[candidates[i]], binners[candidates[j]]
			children := make([][]float64, bins*bins)
			for c := range children {
				children[c] = make([]float64, nseg)
			}
			for r := 0; r < tb.Len(); r++ {
				row := tb.Row(r)
				cell := bx.Bin(row[xi])*bins + by.Bin(row[yi])
				children[cell][int(row[critIdx])]++
			}
			scores = append(scores, PairScore{
				X: candidates[i], Y: candidates[j],
				Gain: stats.InfoGain(children),
			})
		}
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].Gain != scores[b].Gain {
			return scores[a].Gain > scores[b].Gain
		}
		if scores[a].X != scores[b].X {
			return scores[a].X < scores[b].X
		}
		return scores[a].Y < scores[b].Y
	})
	return scores[0].X, scores[0].Y, scores, nil
}
