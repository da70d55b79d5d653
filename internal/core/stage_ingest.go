package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"arcs/internal/dataset"
	"arcs/internal/stats"
)

// ingestStats is the Ingest stage's product: the observed axis ranges
// for the BinFit stage, plus the reservoir-sampled fit buffer that the
// quantile/supervised binners and the verification sample draw from.
type ingestStats struct {
	xLo, xHi, yLo, yHi float64
	buf                []dataset.Tuple
}

// stageIngest is the Ingest stage: one pass over the source collecting
// the axis min/max for binner fitting and the reservoir sample, then
// installing the verifier's sample, a uniform subsample of it. It is
// sequential on purpose — reservoir sampling is order-dependent, so this
// pass defines the sample bit-for-bit; only the Count stage shards.
func (s *System) stageIngest(ctx context.Context, src dataset.Source) (*ingestStats, error) {
	fitSize := max(s.cfg.SampleSize, 4096)
	res := stats.NewReservoir(rand.New(rand.NewSource(s.cfg.Seed)), fitSize)
	ing := &ingestStats{
		xLo: math.Inf(1), xHi: math.Inf(-1),
		yLo: math.Inf(1), yHi: math.Inf(-1),
		buf: make([]dataset.Tuple, 0, fitSize),
	}
	err := dataset.ForEachContext(ctx, src, func(t dataset.Tuple) error {
		if v := t[s.xIdx]; v < ing.xLo {
			ing.xLo = v
		}
		if v := t[s.xIdx]; v > ing.xHi {
			ing.xHi = v
		}
		if v := t[s.yIdx]; v < ing.yLo {
			ing.yLo = v
		}
		if v := t[s.yIdx]; v > ing.yHi {
			ing.yHi = v
		}
		// Kept tuples are cloned: the stream may reuse t's buffer for
		// the next row.
		if slot, keep := res.Offer(); keep {
			if slot == len(ing.buf) {
				ing.buf = append(ing.buf, t.Clone())
			} else {
				ing.buf[slot] = t.Clone()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(ing.buf) == 0 {
		return nil, fmt.Errorf("core: source yielded no tuples")
	}
	sample := dataset.NewTable(s.schema)
	for _, t := range ing.buf[:min(s.cfg.SampleSize, len(ing.buf))] {
		if err := sample.Append(t); err != nil {
			return nil, err
		}
	}
	s.sample = sample
	return ing, nil
}
