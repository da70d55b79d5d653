package core

import (
	"context"
	"fmt"

	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/obs"
)

// CountsInfo identifies the count backend a System serves reads from
// and its footprint — published on every Result, in the JSON report,
// and as gauges on /metrics, so operators can see which substrate a
// run landed on and what it cost.
type CountsInfo struct {
	// Backend is the backend kind: dense or sparse.
	Backend string `json:"backend"`
	// Workers is the ingest parallelism of the build (1 = sequential).
	Workers int `json:"workers,omitempty"`
	// Cells is the grid size nx×ny; OccupiedCells counts cells holding
	// at least one tuple.
	Cells         int64 `json:"cells"`
	OccupiedCells int64 `json:"occupied_cells"`
	// MemBytes is resident memory.
	MemBytes int64 `json:"mem_bytes"`
}

// countsInfoOf summarizes a built backend.
func countsInfoOf(b counts.Backend, workers int) CountsInfo {
	st := b.Stats()
	return CountsInfo{
		Backend:       counts.KindOf(b).String(),
		Workers:       workers,
		Cells:         int64(b.NX()) * int64(b.NY()),
		OccupiedCells: int64(st.OccupiedCells),
		MemBytes:      int64(st.MemBytes),
	}
}

// stageCount is the Count stage: fill the count backend with one pass
// over the source. The pass shape (sequential or sharded parallel) and
// the backend kind (dense, sparse) dispatch independently — Config.CountsBackend pins a kind, Config.MemBudget
// lets Auto pick one the budget fits — and all combinations produce
// bit-identical counts. IngestWorkers > 1 shards the pass when the
// source supports range sharding (dataset.Sharder) and falls back to
// the sequential pass when it does not.
func (s *System) stageCount(ctx context.Context, src dataset.Source, nseg int) ([]obs.Attr, error) {
	spec := counts.Spec{
		XIdx: s.xIdx, YIdx: s.yIdx, CritIdx: s.critIdx,
		XBinner: s.xb, YBinner: s.yb, NSeg: nseg,
	}
	kind, err := counts.ParseKind(s.cfg.CountsBackend)
	if err != nil {
		return nil, err // unreachable: Config.validate parses it first
	}
	opts := counts.Options{Kind: kind, MemBudget: s.cfg.MemBudget}
	mode, workers := "sequential", 1
	if sharder, ok := src.(dataset.Sharder); ok && s.cfg.IngestWorkers > 1 {
		mode = "sharded"
		s.ba, workers, err = counts.BuildSharded(ctx, sharder, s.cfg.IngestWorkers, spec, opts)
	} else {
		s.ba, err = counts.Build(ctx, src, spec, opts)
	}
	if err != nil {
		return nil, err
	}
	if s.ba.N() == 0 {
		return nil, fmt.Errorf("core: source yielded no tuples")
	}
	s.countsInfo = countsInfoOf(s.ba, workers)
	attrs := []obs.Attr{
		obs.Int("tuples", int(s.ba.N())),
		obs.Int("grid_x", s.ba.NX()), obs.Int("grid_y", s.ba.NY()),
		obs.Int("segments", nseg),
		obs.Str("backend", s.countsInfo.Backend),
		obs.Str("mode", mode), obs.Int("workers", workers),
	}
	if s.obs.Enabled() {
		attrs = append(attrs, s.countMetrics()...)
	}
	return attrs, nil
}

// countMetrics walks the built backend's occupied cells once for
// occupancy metrics and reports the occupancy span attributes. The
// walk is occupied-cells-only (counts.Backend.Cells), so a sparse
// high-resolution grid pays for its tuples, not its resolution; it
// runs once per New with observability on, never on the probe path.
func (s *System) countMetrics() []obs.Attr {
	reg := s.obs.Registry()
	occ := reg.HistogramBuckets("bin_cell_occupancy", obs.SizeBuckets)
	nseg := s.ba.NSeg()
	occupied := int64(0)
	s.ba.Cells(func(_, _ int, cell []uint32) {
		if n := cell[nseg]; n > 0 {
			occupied++
			occ.Observe(float64(n))
		}
	})
	info := s.countsInfo
	cells := info.Cells
	reg.Gauge("binarray_mem_bytes").Set(info.MemBytes)
	reg.Gauge("counts_occupied_cells").Set(occupied)
	reg.Gauge("bin_cells_total").Set(cells)
	reg.Gauge("bin_cells_empty").Set(cells - occupied)
	// The backend identity as a one-hot gauge family: no label support
	// in the registry, so the kind is encoded in the metric name
	// (counts_backend_dense|sparse), with the loser zeroed so a scrape
	// after a backend switch does not show two ones.
	for _, k := range []counts.Kind{counts.Dense, counts.Sparse} {
		v := int64(0)
		if k.String() == info.Backend {
			v = 1
		}
		reg.Gauge("counts_backend_" + k.String()).Set(v)
	}
	emptyFrac := 0.0
	if cells > 0 {
		emptyFrac = float64(cells-occupied) / float64(cells)
	}
	return []obs.Attr{
		obs.Int("occupied_cells", int(occupied)),
		obs.Float("empty_fraction", emptyFrac),
		obs.Int("mem_bytes", int(info.MemBytes)),
	}
}
