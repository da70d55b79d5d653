package core

import (
	"fmt"

	"arcs/internal/binning"
)

// stageBinFit is the BinFit stage: construct the two axis binners from
// the Ingest stage's statistics.
func (s *System) stageBinFit(ing *ingestStats) error {
	cfg := s.cfg
	bins := cfg.NumBins
	col := func(idx int) []float64 {
		out := make([]float64, len(ing.buf))
		for i, t := range ing.buf {
			out[i] = t[idx]
		}
		return out
	}
	mkBinner := func(idx int, cat bool, lo, hi float64) (*binning.Binner, error) {
		if cat {
			n := s.schema.At(idx).NumCategories()
			return binning.NewCategorical(n)
		}
		lo, hi = binning.WidenDegenerate(lo, hi)
		switch cfg.BinStrategy {
		case BinEquiWidth:
			return binning.NewEquiWidth(lo, hi, bins)
		case BinEquiDepth:
			return binning.NewEquiDepth(col(idx), bins)
		case BinHomogeneity:
			return binning.NewHomogeneity(col(idx), bins)
		case BinSupervised:
			classes := make([]int, len(ing.buf))
			for i, t := range ing.buf {
				classes[i] = int(t[s.critIdx])
			}
			sb, err := binning.NewSupervised(col(idx), classes, bins)
			if err != nil {
				return nil, err
			}
			// Supervised cuts only exist where the attribute's marginal
			// class distribution changes. On interaction-driven data
			// (e.g. Function 2, where P(group | age) is flat although
			// age matters jointly with salary) no cut passes the MDL
			// test and the axis would collapse to one bin; fall back to
			// the unsupervised default there.
			if sb.NumBins() < 3 {
				return binning.NewEquiWidth(lo, hi, bins)
			}
			return sb, nil
		default:
			return nil, fmt.Errorf("core: unknown bin strategy %v", cfg.BinStrategy)
		}
	}
	var err error
	if s.xb, err = mkBinner(s.xIdx, s.xCat, ing.xLo, ing.xHi); err != nil {
		return err
	}
	if s.yb, err = mkBinner(s.yIdx, s.yCat, ing.yLo, ing.yHi); err != nil {
		return err
	}
	return nil
}
