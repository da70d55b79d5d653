package experiments

import (
	"arcs/internal/binning"
	"arcs/internal/core"
	"arcs/internal/dataset"
	"arcs/internal/engine"
	"arcs/internal/quant"
	"arcs/internal/synth"
)

// WhyClusteringResult quantifies the paper's §1 motivation on one
// dataset: the number of rules a user would have to read under each
// mining regime.
type WhyClusteringResult struct {
	// CellRules is the number of raw two-dimensional association rules
	// (one per qualifying grid cell) — "hundreds or thousands of rules
	// corresponding to specific attribute values".
	CellRules int
	// QuantRules is the number of Srikant & Agrawal quantitative
	// interval rules over the same two attributes (with interest
	// pruning), the §1.1 related-work approach.
	QuantRules int
	// ClusteredRules is ARCS's output.
	ClusteredRules int
	// ClusteredErrPct is the ARCS segmentation's verification error.
	ClusteredErrPct float64
}

// WhyClustering mines the same Function 2 data three ways: raw cell
// rules, quantitative interval rules, and ARCS clustered rules.
func WhyClustering(n, bins int) (WhyClusteringResult, error) {
	var out WhyClusteringResult

	gen, err := synthSource(dataConfig(n, 0.10, DefaultSeed))
	if err != nil {
		return out, err
	}
	sys, err := core.New(gen, arcsConfig(bins, DefaultSeed))
	if err != nil {
		return out, err
	}
	res, err := sys.Run()
	if err != nil {
		return out, err
	}
	out.ClusteredRules = len(res.Rules)
	out.ClusteredErrPct = 100 * res.Errors.Rate()

	// Raw cell rules at the thresholds ARCS settled on.
	schema := sys.Sample().Schema()
	segCode, _ := schema.Attr(synth.AttrGroup).LookupCategory(synth.GroupA)
	cellRules, err := engine.GenAssociationRules(sys.Counts(), segCode, res.MinSupport, res.MinConfidence)
	if err != nil {
		return out, err
	}
	out.CellRules = len(cellRules)

	// Quantitative interval rules over (age, salary) -> group, on the
	// same binning, with interest pruning at R = 1.1.
	if err := gen.Reset(); err != nil {
		return out, err
	}
	binned, xb, yb, critIdx, err := binF2(gen, bins)
	if err != nil {
		return out, err
	}
	_ = xb
	_ = yb
	// Standard SIGMOD'96-style parameters: minsup 1%, maxsup 15%,
	// interest factor 1.1. (ARCS's own MDL-chosen support is far lower
	// because single cells are tiny; feeding it here would explode the
	// interval lattice rather than model how a practitioner would run
	// the quantitative miner.)
	qRules, err := quant.Mine(binned, quant.Config{
		MinSupport:    0.01,
		MinConfidence: res.MinConfidence,
		MaxSupport:    0.15,
		Interest:      1.1,
		RHSAttr:       critIdx,
		Bins:          []int{bins, bins, 2},
	})
	if err != nil {
		return out, err
	}
	out.QuantRules = len(qRules)
	return out, nil
}

// binF2 projects the generator stream to (age, salary, group) and bins
// the quantitative attributes equi-width for the quant miner.
func binF2(src dataset.Source, bins int) (*dataset.Table, *binning.Binner, *binning.Binner, int, error) {
	xb, err := binning.NewEquiWidth(synth.AgeMin, synth.AgeMax, bins)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	yb, err := binning.NewEquiWidth(synth.SalaryMin, synth.SalaryMax, bins)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	schema := dataset.NewSchema(
		dataset.Attribute{Name: synth.AttrAge, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrSalary, Kind: dataset.Quantitative},
		dataset.Attribute{Name: synth.AttrGroup, Kind: dataset.Categorical},
	)
	schema.Attr(synth.AttrGroup).CategoryCode(synth.GroupA)
	schema.Attr(synth.AttrGroup).CategoryCode(synth.GroupOther)
	tb := dataset.NewTable(schema)

	srcSchema := src.Schema()
	ai := srcSchema.MustIndex(synth.AttrAge)
	si := srcSchema.MustIndex(synth.AttrSalary)
	gi := srcSchema.MustIndex(synth.AttrGroup)
	err = dataset.ForEach(src, func(t dataset.Tuple) error {
		return tb.Append(dataset.Tuple{
			float64(xb.Bin(t[ai])),
			float64(yb.Bin(t[si])),
			t[gi],
		})
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return tb, xb, yb, 2, nil
}
