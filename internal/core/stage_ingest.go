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
// pass defines the sample bit-for-bit; only the Count stage shards. A
// non-finite LHS value fails the pass: no bin holds it.
func (s *System) stageIngest(ctx context.Context, src dataset.Source) (*ingestStats, error) {
	fitSize := max(sampleSize, 4096)
	res := stats.NewReservoir(rand.New(rand.NewSource(s.cfg.Seed)), fitSize)
	ing := &ingestStats{
		xLo: math.Inf(1), xHi: math.Inf(-1),
		yLo: math.Inf(1), yHi: math.Inf(-1),
		buf: make([]dataset.Tuple, 0, fitSize),
	}
	row := 0
	err := dataset.ForEachContext(ctx, src, func(t dataset.Tuple) error {
		x, y := t[s.xIdx], t[s.yIdx]
		if !finite(x) || !finite(y) {
			return s.nonFiniteLHS(t, row)
		}
		row++
		if x < ing.xLo {
			ing.xLo = x
		}
		if x > ing.xHi {
			ing.xHi = x
		}
		if y < ing.yLo {
			ing.yLo = y
		}
		if y > ing.yHi {
			ing.yHi = y
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
	for _, t := range ing.buf[:min(sampleSize, len(ing.buf))] {
		if err := sample.Append(t); err != nil {
			return nil, err
		}
	}
	s.sample = sample
	return ing, nil
}

// finite reports whether v is neither NaN nor infinite: v-v is NaN for
// both, and 0 otherwise.
func finite(v float64) bool { return v-v == 0 }

// nonFiniteLHS is the error for a tuple whose x or y value is not
// finite: it names the attribute, the tuple's row in its source and the
// value.
func (s *System) nonFiniteLHS(t dataset.Tuple, row int) error {
	idx := s.xIdx
	if finite(t[idx]) {
		idx = s.yIdx
	}
	return fmt.Errorf("core: attribute %q is %v at row %d; LHS values must be finite",
		s.schema.At(idx).Name, t[idx], row)
}
