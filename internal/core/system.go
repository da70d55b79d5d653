package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"

	"arcs/internal/binning"
	"arcs/internal/bitop"
	"arcs/internal/cancelcheck"
	"arcs/internal/cluster"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/filter"
	"arcs/internal/grid"
	"arcs/internal/obs"
	"arcs/internal/rules"
	"arcs/internal/verify"
)

// System is a fully initialized ARCS instance: the data has been binned
// into the in-memory count backend and a verification sample drawn, so
// any number of threshold probes, criterion values or full optimizer
// runs can execute without touching the source again.
type System struct {
	cfg    Config
	schema *dataset.Schema

	xIdx, yIdx, critIdx int
	xb, yb              *binning.Binner
	xCat, yCat          bool

	ba counts.Backend
	// countsInfo is the build-time summary of the count backend (kind,
	// parallelism, footprint), set once by stageCount and copied into
	// every Result.
	countsInfo CountsInfo
	sample     *dataset.Table
	// vindex pre-bins the verification sample against the binner
	// boundaries, so every probe verifies coverage in O(1) per tuple.
	// Rebuilt by Extend; read-only otherwise.
	vindex *verify.Index
	// probes memoizes threshold evaluations across runs and goroutines.
	probes *probeCache

	// obs is the observability layer (nil when Config.Observer is unset:
	// every span/metric call then no-ops without allocating). The metric
	// handles below are resolved once at construction so the worker-pool
	// hot path never touches the registry map.
	obs         *obs.Observer
	mBatchSize  *obs.Histogram
	mQueueDepth *obs.Gauge
	mPoolWork   *obs.Gauge
	// Stage-level handles: BitOp operation accounting, cluster geometry
	// and MDL term breakdown, observed on every probe and final mine.
	mBitopAnd    *obs.Counter
	mBitopCmp    *obs.Counter
	mBitopCand   *obs.Counter
	mBitopRounds *obs.Counter
	mRectArea    *obs.Histogram
	mRectWidth   *obs.Histogram
	mRectHeight  *obs.Histogram
	mMDLCluster  *obs.Histogram
	mMDLError    *obs.Histogram
	// Robustness accounting: probes whose panics were recovered, and runs
	// that returned a degraded (best-so-far) result after cancellation.
	mPanics   *obs.Counter
	mDegraded *obs.Counter

	// mu guards the thresholds cache; everything else is read-only
	// after New, so concurrent RunValue calls are safe.
	mu sync.Mutex
	// thresholds caches the per-criterion index (the Figure 10
	// structure) per criterion code: the walk's levels, the lift bar's
	// tuple total and every probe's rule grid read it.
	thresholds map[int]*critIndex
}

// New builds a System from a tuple source by running the construction
// stages (see pipeline.go): Ingest (stats + reservoir sample), BinFit,
// and Count — two passes over the data. With Config.IngestWorkers > 1
// the Count pass shards across a worker pool for shardable sources;
// both shapes produce bit-identical counts.
func New(src dataset.Source, cfg Config) (*System, error) {
	return NewContext(context.Background(), src, cfg)
}

// NewContext is New with cooperative cancellation of the data passes:
// every stage polls the context at the dataset layer's checkpoint
// granularity, and construction fails with a RunError{Phase: "init"}
// wrapping the cancellation. There is no partial System — a half-filled
// count backend would silently bias every later result.
func NewContext(ctx context.Context, src dataset.Source, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	schema := src.Schema()
	s := &System{cfg: cfg, schema: schema, thresholds: make(map[int]*critIndex)}
	s.obs = cfg.Observer
	reg := s.obs.Registry()
	s.mBatchSize = reg.HistogramBuckets("probe_batch_size", obs.SizeBuckets)
	s.mQueueDepth = reg.Gauge("pool_queue_depth")
	s.mPoolWork = reg.Gauge("pool_workers")
	s.mBitopAnd = reg.Counter("bitop_and_word_ops_total")
	s.mBitopCmp = reg.Counter("bitop_cmp_word_ops_total")
	s.mBitopCand = reg.Counter("bitop_candidates_total")
	s.mBitopRounds = reg.Counter("bitop_rounds_total")
	s.mRectArea = reg.HistogramBuckets("cluster_rect_area", obs.SizeBuckets)
	s.mRectWidth = reg.HistogramBuckets("cluster_rect_width", obs.SizeBuckets)
	s.mRectHeight = reg.HistogramBuckets("cluster_rect_height", obs.SizeBuckets)
	s.mMDLCluster = reg.HistogramBuckets("mdl_cluster_term_bits", obs.SizeBuckets)
	s.mMDLError = reg.HistogramBuckets("mdl_error_term_bits", obs.SizeBuckets)
	s.mPanics = reg.Counter("probe_panics_recovered_total")
	s.mDegraded = reg.Counter("runs_degraded_total")
	init := s.obs.Root("init", s.rootAttrs(
		obs.Str("x_attr", cfg.XAttr), obs.Str("y_attr", cfg.YAttr),
		obs.Str("crit_attr", cfg.CritAttr))...)

	var err error
	if s.xIdx, err = schema.Index(cfg.XAttr); err != nil {
		return nil, err
	}
	if s.yIdx, err = schema.Index(cfg.YAttr); err != nil {
		return nil, err
	}
	if s.critIdx, err = schema.Index(cfg.CritAttr); err != nil {
		return nil, err
	}
	if schema.At(s.critIdx).Kind != dataset.Categorical {
		return nil, fmt.Errorf("core: criterion attribute %q must be categorical", cfg.CritAttr)
	}
	s.xCat = schema.At(s.xIdx).Kind == dataset.Categorical
	s.yCat = schema.At(s.yIdx).Kind == dataset.Categorical
	if s.xCat && s.yCat {
		return nil, fmt.Errorf("core: at most one LHS attribute may be categorical (got %q and %q)",
			cfg.XAttr, cfg.YAttr)
	}
	nseg := schema.At(s.critIdx).NumCategories()
	if nseg == 0 {
		return nil, fmt.Errorf("core: criterion attribute %q has no categories", cfg.CritAttr)
	}

	var ing *ingestStats
	err = s.runStages(ctx, init, []stage{
		{name: "ingest", run: func(ctx context.Context) ([]obs.Attr, error) {
			var err error
			if ing, err = s.stageIngest(ctx, src); err != nil {
				return nil, err
			}
			return []obs.Attr{obs.Int("sample", s.sample.Len())}, nil
		}},
		{name: "binfit", run: func(context.Context) ([]obs.Attr, error) {
			if err := s.stageBinFit(ing); err != nil {
				return nil, err
			}
			return []obs.Attr{
				obs.Str("method_x", s.xb.Method()),
				obs.Str("method_y", s.yb.Method()),
				obs.Int("boundaries_x", len(binning.Boundaries(s.xb))),
				obs.Int("boundaries_y", len(binning.Boundaries(s.yb))),
			}, nil
		}},
		{name: "count", run: func(ctx context.Context) ([]obs.Attr, error) {
			return s.stageCount(ctx, src, nseg)
		}},
	})
	if err != nil {
		return nil, err
	}

	sp := init.Child("verify-index")
	if err := s.buildVerifyIndex(); err != nil {
		return nil, err
	}
	sp.End(obs.Int("tuples", s.vindex.Len()))
	s.probes = newProbeCache()
	s.probes.onHit = reg.Counter("probe_cache_hits_total")
	s.probes.onMiss = reg.Counter("probe_cache_misses_total")
	init.End()
	return s, nil
}

// rootAttrs prefixes the configured run ID onto a root span's attribute
// list. With no RunID (or observability off) it returns attrs untouched,
// keeping single-run callers allocation-free.
func (s *System) rootAttrs(attrs ...obs.Attr) []obs.Attr {
	if s.cfg.RunID == "" || !s.obs.Enabled() {
		return attrs
	}
	return append([]obs.Attr{obs.Str("run_id", s.cfg.RunID)}, attrs...)
}

// labeled runs fn under a pprof label keyed by pipeline phase, so CPU
// profiles attribute samples to stages (`-tagfocus arcs_phase=...`).
// With observability off it degenerates to a plain call — pprof.Do
// allocates a label set, which the disabled hot path must not.
func (s *System) labeled(phase string, fn func()) {
	if !s.obs.Enabled() {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("arcs_phase", phase),
		func(context.Context) { fn() })
}

// buildVerifyIndex pre-bins the verification sample against the current
// binner boundaries and makes the k-of-n draws every probe is scored on,
// seeded by Seed+1 (also called by Extend after the sample changes).
func (s *System) buildVerifyIndex() error {
	ix, err := verify.NewIndex(s.sample, s.xIdx, s.yIdx, s.critIdx,
		binning.Boundaries(s.xb), binning.Boundaries(s.yb),
		verify.Draws{Rounds: sampleRounds, K: sampleSize / 2, Seed: s.cfg.Seed + 1})
	if err != nil {
		return fmt.Errorf("core: building verification index: %w", err)
	}
	ix.Observe(s.obs.Registry().Counter("verify_fastpath_rules_total"))
	s.vindex = ix
	return nil
}

// initErr wraps construction-pass failures as RunError{Phase: "init"}
// when they stem from cancellation, leaving other errors untouched so
// existing callers keep their error shapes.
func initErr(err error) error {
	if cancelcheck.IsCancel(err) {
		return &RunError{Phase: "init", Err: err}
	}
	return err
}

// segCode resolves a criterion label to its category code.
func (s *System) segCode(label string) (int, error) {
	code, ok := s.schema.At(s.critIdx).LookupCategory(label)
	if !ok {
		return 0, fmt.Errorf("core: criterion attribute %q has no value %q (have %v)",
			s.cfg.CritAttr, label, s.schema.At(s.critIdx).Categories())
	}
	return code, nil
}

// Counts exposes the count backend (read-only by convention).
func (s *System) Counts() counts.Backend { return s.ba }

// CountsStats reports which backend the build selected and what it
// costs in memory and disk — the numbers behind the counts_* gauges.
func (s *System) CountsStats() CountsInfo { return s.countsInfo }

// Sample exposes the verification sample.
func (s *System) Sample() *dataset.Table { return s.sample }

// Binners exposes the fitted binners for the two LHS attributes.
func (s *System) Binners() (x, y *binning.Binner) { return s.xb, s.yb }

// Grid builds the (optionally smoothed) rule bitmap at the given
// thresholds for a criterion label — the exact input BitOp sees. Useful
// for visualization (paper Figures 1, 7).
func (s *System) Grid(label string, minSup, minConf float64) (*grid.Bitmap, error) {
	seg, err := s.segCode(label)
	if err != nil {
		return nil, err
	}
	return s.buildGrid(seg, minSup, s.effectiveMinConf(seg, minConf))
}

// effectiveMinConf applies the interest-measure extension: when
// InterestLift is configured, the confidence bar is raised to
// lift × prior of the criterion value if that exceeds minConf, where the
// prior is the tuple total of the value's index over N. The raised bar
// can exceed 1, and then buildGrid admits no cell.
func (s *System) effectiveMinConf(seg int, minConf float64) float64 {
	if s.cfg.InterestLift <= 0 || s.ba.N() == 0 {
		return minConf
	}
	// An index that fails to build leaves the bar as it is: buildGrid
	// reads the same index and reports the error.
	th, err := s.thresholdsFor(seg)
	if err != nil {
		return minConf
	}
	prior := float64(th.Total()) / float64(s.ba.N())
	if bar := s.cfg.InterestLift * prior; bar > minConf {
		return bar
	}
	return minConf
}

// buildGrid sets the (smoothed) rule grid at minConf, which the caller
// has raised to the interest bar with effectiveMinConf, from the
// criterion value's index.
func (s *System) buildGrid(seg int, minSup, minConf float64) (*grid.Bitmap, error) {
	if minConf > 1 {
		// No cell reaches the bar, whatever the smoothing.
		return grid.New(s.ba.NY(), s.ba.NX())
	}
	th, err := s.thresholdsFor(seg)
	if err != nil {
		return nil, err
	}
	if s.cfg.Smoothing == SmoothWeighted {
		// Smooth support values of confidence-passing cells, then
		// threshold at the support minimum.
		dense, err := th.SupportGrid(minConf)
		if err != nil {
			return nil, err
		}
		return filter.LowPassWeighted(dense, minSup)
	}
	bm, err := th.RuleGrid(minSup, minConf)
	if err != nil {
		return nil, err
	}
	switch s.cfg.Smoothing {
	case SmoothBinary:
		return filter.LowPass(bm, smoothThreshold)
	case SmoothMorphological:
		return filter.Open(filter.Close(bm)), nil
	default:
		return bm, nil
	}
}

// MineAt runs the full clustering pipeline at fixed thresholds for the
// configured criterion value: mine cell rules, build and smooth the grid,
// run BitOp with dynamic pruning, and convert the rectangles to clustered
// association rules.
func (s *System) MineAt(minSup, minConf float64) ([]rules.ClusteredRule, error) {
	seg, err := s.segCode(s.cfg.CritValue)
	if err != nil {
		return nil, err
	}
	return s.mineAtSeg(obs.Span{}, seg, minSup, minConf)
}

// mineAtSeg emits "mine" (the rule grid + smoothing) and
// "cluster" (BitOp + rule conversion) spans under parent; a zero parent
// span disables both.
func (s *System) mineAtSeg(parent obs.Span, seg int, minSup, minConf float64) ([]rules.ClusteredRule, error) {
	minConf = s.effectiveMinConf(seg, minConf)
	sp := parent.Child("mine",
		obs.Float("support", minSup), obs.Float("confidence", minConf))
	var bm *grid.Bitmap
	var err error
	s.labeled("mine", func() { bm, err = s.buildGrid(seg, minSup, minConf) })
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.End(obs.Int("grid_x", s.ba.NX()), obs.Int("grid_y", s.ba.NY()))
	gridArea := s.ba.NX() * s.ba.NY()
	minArea := 1
	if s.cfg.PruneFraction > 0 {
		minArea = int(math.Ceil(s.cfg.PruneFraction * float64(gridArea)))
		if minArea < 1 {
			minArea = 1
		}
	}
	sp = parent.Child("cluster", obs.Int("min_area", minArea), obs.Int("seg", seg))
	var st *bitop.Stats
	if s.obs.Enabled() {
		st = &bitop.Stats{}
	}
	var rects []grid.Rect
	s.labeled("cluster", func() { rects = bitopCluster(bm, minArea, st) })
	if st != nil {
		s.mBitopAnd.Add(st.AndWordOps())
		s.mBitopCmp.Add(st.CmpWordOps())
		s.mBitopCand.Add(st.Candidates())
		s.mBitopRounds.Add(st.Rounds())
		for _, r := range rects {
			s.mRectArea.Observe(float64(r.Area()))
			s.mRectWidth.Observe(float64(r.Width()))
			s.mRectHeight.Observe(float64(r.Height()))
		}
	}
	meta := cluster.Meta{
		XAttr: s.cfg.XAttr, YAttr: s.cfg.YAttr,
		CritAttr:  s.cfg.CritAttr,
		CritValue: s.schema.At(s.critIdx).Category(seg),
	}
	rs, err := cluster.FromRects(rects, s.ba, seg, s.xb, s.yb, meta)
	if err != nil {
		sp.End()
		return nil, err
	}
	// §2.1 invariant: clustered rules always meet the minimum thresholds.
	// Smoothing can pull cells into a cluster that were never rules, so
	// clusters whose aggregate confidence fell below the minimum — noise
	// fragments, mostly — are discarded here.
	kept := rs[:0]
	for _, r := range rs {
		if r.Confidence >= minConf {
			kept = append(kept, r)
		}
	}
	if st != nil {
		sp.End(obs.Int("rects", len(rects)), obs.Int("rules", len(kept)),
			obs.Int("and_word_ops", int(st.AndWordOps())),
			obs.Int("cmp_word_ops", int(st.CmpWordOps())),
			obs.Int("candidates", int(st.Candidates())),
			obs.Int("rounds", int(st.Rounds())))
	} else {
		sp.End(obs.Int("rects", len(rects)), obs.Int("rules", len(kept)))
	}
	return kept, nil
}
