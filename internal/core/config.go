// Package core wires the ARCS components into the full system of paper
// Figure 2: binner → association rule engine → grid → smoothing → BitOp
// clustering → pruning → verifier → heuristic optimizer, whose
// threshold search adjusts the support and confidence thresholds until
// the MDL cost of the segmentation stops improving.
package core

import (
	"fmt"
	"strings"

	"arcs/internal/counts"
	"arcs/internal/mdl"
	"arcs/internal/obs"
	"arcs/internal/optimizer"
)

// BinStrategy selects how quantitative attributes are partitioned.
type BinStrategy int

const (
	// BinEquiWidth uses equal-width intervals (the paper's default).
	BinEquiWidth BinStrategy = iota
	// BinEquiDepth uses quantile boundaries so bins hold roughly equal
	// tuple counts.
	BinEquiDepth
	// BinHomogeneity sizes bins so tuples within each bin are
	// near-uniformly distributed.
	BinHomogeneity
	// BinSupervised places bin boundaries with the entropy-based MDL
	// criterion of Fayyad & Irani against the criterion attribute, so
	// boundaries align with class changes — the paper's §5 suggestion of
	// applying information-gain measures to threshold determination.
	// NumBins acts as a cap rather than an exact count.
	//
	// Caveat: the cuts are chosen on each attribute's MARGINAL class
	// distribution. On interaction-driven data the marginal can be flat
	// where the joint structure changes (Function 2's age axis entirely,
	// and its salary boundary at 75k), so cuts are missed; axes with no
	// accepted cut fall back to equi-width. Prefer this strategy when
	// the criterion varies with each attribute individually.
	BinSupervised
)

var binStrategyNames = enumNames{
	BinEquiWidth:   {"equi-width", "equi-width"},
	BinEquiDepth:   {"equi-depth", "equi-depth"},
	BinHomogeneity: {"homogeneity", "homogeneity"},
	BinSupervised:  {"supervised", "supervised"},
}

// String names the strategy.
func (b BinStrategy) String() string { return binStrategyNames.print("BinStrategy", int(b)) }

// ParseBinStrategy returns the strategy a flag names: equi-width,
// equi-depth, homogeneity or supervised. The empty name is the default,
// BinEquiWidth.
func ParseBinStrategy(name string) (BinStrategy, error) {
	v, err := binStrategyNames.parse("binning", name)
	return BinStrategy(v), err
}

// SmoothingMode selects the grid-smoothing preprocessing (paper §3.4, §5).
type SmoothingMode int

const (
	// SmoothBinary applies the 3×3 binary low-pass filter (the paper's
	// default in the main experiments).
	SmoothBinary SmoothingMode = iota
	// SmoothOff disables smoothing.
	SmoothOff
	// SmoothWeighted smooths rule support values instead of presence
	// bits (paper §5 extension).
	SmoothWeighted
)

var smoothingModeNames = enumNames{
	SmoothBinary:   {"binary", "binary"},
	SmoothOff:      {"off", "off"},
	SmoothWeighted: {"weighted", "support-weighted"},
}

// String names the mode.
func (s SmoothingMode) String() string { return smoothingModeNames.print("SmoothingMode", int(s)) }

// ParseSmoothingMode returns the mode a flag or job spec names: binary,
// off or weighted. The empty name is the default, SmoothBinary.
func ParseSmoothingMode(name string) (SmoothingMode, error) {
	v, err := smoothingModeNames.parse("smoothing", name)
	return SmoothingMode(v), err
}

// SearchStrategy selects the threshold optimizer.
type SearchStrategy int

const (
	// SearchWalk is the paper's low-to-high threshold walk (§3.7).
	SearchWalk SearchStrategy = iota
	// SearchAnneal uses simulated annealing (§5).
	SearchAnneal
	// SearchFixed skips the search and uses FixedMinSupport /
	// FixedMinConfidence directly.
	SearchFixed
)

var searchStrategyNames = enumNames{
	SearchWalk:   {"walk", "threshold-walk"},
	SearchAnneal: {"anneal", "simulated-annealing"},
	SearchFixed:  {"fixed", "fixed"},
}

// String names the strategy.
func (s SearchStrategy) String() string { return searchStrategyNames.print("SearchStrategy", int(s)) }

// ParseSearchStrategy returns the strategy a flag or job spec names:
// walk, anneal or fixed. The empty name is the default, SearchWalk.
func ParseSearchStrategy(name string) (SearchStrategy, error) {
	v, err := searchStrategyNames.parse("search", name)
	return SearchStrategy(v), err
}

// enumNames is a strategy enum's name table, indexed by value: the
// name flags and job specs give a value, and the name its String
// method prints, which traces carry as the strategy attribute.
type enumNames []struct{ flag, print string }

// has reports whether the table has an entry for v.
func (n enumNames) has(v int) bool { return v >= 0 && v < len(n) }

func (n enumNames) print(typ string, v int) string {
	if !n.has(v) {
		return fmt.Sprintf("%s(%d)", typ, v)
	}
	return n[v].print
}

func (n enumNames) parse(what, name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	flags := make([]string, len(n))
	for v, e := range n {
		if e.flag == name {
			return v, nil
		}
		flags[v] = e.flag
	}
	last := len(flags) - 1
	return 0, fmt.Errorf("unknown %s %q (want %s or %s)", what, name, strings.Join(flags[:last], ", "), flags[last])
}

// Config parameterizes an ARCS run. Only the attribute names are
// required; every other field has the paper's default.
type Config struct {
	// XAttr and YAttr are the two LHS attributes chosen by the user
	// (or by attribute selection; see SelectAttributePair).
	XAttr, YAttr string
	// CritAttr is the categorical RHS criterion attribute; CritValue is
	// the group being segmented (e.g. customer-rating = "excellent").
	CritAttr, CritValue string

	// NumBins is the per-axis bin count for quantitative attributes.
	// The paper presets 50. Categorical LHS attributes always get one
	// bin per category.
	NumBins int
	// BinStrategy selects the quantitative partitioning scheme.
	BinStrategy BinStrategy

	// Smoothing selects the grid preprocessing.
	Smoothing SmoothingMode

	// PruneFraction is the dynamic pruning threshold of §3.5: clusters
	// smaller than this fraction of the grid are discarded and the
	// clustering loop stops when no larger cluster remains. The paper
	// uses 1%. Negative disables pruning.
	PruneFraction float64

	// InterestLift, when positive, additionally requires every mined
	// cell to beat the criterion value's global prior by this factor —
	// the "greater-than-expected-value" interest measure discussed in
	// §1.1 (Srikant & Agrawal). It composes with the confidence
	// threshold: the effective minimum confidence is
	// max(minConfidence, InterestLift × prior).
	InterestLift float64

	// Weights biases the MDL cost (default wc = we = 1).
	Weights mdl.Weights

	// Search picks the optimizer; Walk and Anneal carry the
	// per-strategy knobs. With SearchFixed, FixedMinSupport and
	// FixedMinConfidence are used verbatim.
	Search             SearchStrategy
	Walk               optimizer.ThresholdWalk
	Anneal             optimizer.Anneal
	FixedMinSupport    float64
	FixedMinConfidence float64

	// Seed drives all sampling; runs are deterministic per seed.
	Seed int64

	// IngestWorkers sets the parallelism of the counting pass. 0 or 1
	// builds the counts sequentially; larger values shard the pass
	// across that many workers when the source supports range
	// sharding (in-memory tables, deterministic generators — see
	// dataset.Sharder), falling back to the sequential build for
	// streaming sources. Counts and results are bit-identical at any
	// setting; only wall-clock time changes.
	IngestWorkers int

	// MemBudget is the advisory memory cap in bytes for the dense count
	// array. 0 applies the 1 GiB default; negative means unlimited.
	// When the dense array would not fit, the build dispatches to the
	// sparse backend instead of failing — counts are byte-identical
	// whichever backend serves them (see counts.Options). The budget
	// never refuses sparse. In a sharded build each worker selects
	// against its share.
	MemBudget int64

	// CountsBackend pins a count backend: "auto" (default), "dense" or
	// "sparse". Auto selects dense when the full grid fits MemBudget
	// and sparse otherwise.
	CountsBackend string

	// RunID, when non-empty, is prepended as a "run_id" attribute on
	// every root span the System emits (init, thresholds, run), so a
	// process hosting many concurrent mining jobs over one shared sink —
	// arcsd — can attribute the interleaved span stream to jobs. Leave
	// empty for single-run commands; it costs one small allocation per
	// root span when set and nothing when empty.
	RunID string

	// Observer receives phase spans and metrics for every run of the
	// System (see internal/obs for the span taxonomy and metric names).
	// Nil — the default — disables observability entirely: the probe hot
	// path then performs no allocations and updates no metric, and no
	// pprof phase labels are applied.
	Observer *obs.Observer

	// ProbeHook, when set, runs at the start of every probe evaluation
	// (cache misses only) with the probe's criterion code and thresholds.
	// It is the fault-injection seam for chaos tests: a hook that panics
	// exercises the probe isolation layer — the panic is recovered, the
	// probe fails with a PanicError, and the search continues. Production
	// configs leave it nil.
	ProbeHook func(seg int, minSup, minConf float64)
}

const (
	// smoothThreshold is the binary low-pass filter's neighborhood
	// fraction (paper §3.4): a cell is set when at least half of its
	// 3×3 neighborhood is.
	smoothThreshold = 0.5
	// sampleSize is the number of tuples reservoir-sampled for the
	// verifier.
	sampleSize = 2000
	// sampleRounds is the number of repeated k-out-of-n draws every
	// probe verifies on, k being half the sample; the verification
	// index makes them once (see System.buildVerifyIndex).
	sampleRounds = 5
)

// withDefaults fills the zero values with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.NumBins == 0 {
		c.NumBins = 50
	}
	if c.PruneFraction == 0 {
		c.PruneFraction = 0.01
	}
	if c.Weights == (mdl.Weights{}) {
		c.Weights = mdl.DefaultWeights()
	}
	return c
}

func (c Config) validate() error {
	if c.XAttr == "" || c.YAttr == "" || c.CritAttr == "" {
		return fmt.Errorf("core: XAttr, YAttr and CritAttr are required")
	}
	if c.XAttr == c.YAttr {
		return fmt.Errorf("core: LHS attributes must differ, both are %q", c.XAttr)
	}
	if c.XAttr == c.CritAttr || c.YAttr == c.CritAttr {
		return fmt.Errorf("core: criterion attribute %q cannot also be an LHS attribute", c.CritAttr)
	}
	if c.NumBins < 0 {
		return fmt.Errorf("core: bin counts must be non-negative")
	}
	if !binStrategyNames.has(int(c.BinStrategy)) {
		return fmt.Errorf("core: unknown %v", c.BinStrategy)
	}
	if !smoothingModeNames.has(int(c.Smoothing)) {
		return fmt.Errorf("core: unknown %v", c.Smoothing)
	}
	if !searchStrategyNames.has(int(c.Search)) {
		return fmt.Errorf("core: unknown %v", c.Search)
	}
	// The threshold checks are written so that NaN fails them.
	if !(c.PruneFraction <= 1) {
		return fmt.Errorf("core: prune fraction %g exceeds 1", c.PruneFraction)
	}
	if !(c.InterestLift >= 0) {
		return fmt.Errorf("core: interest lift %g is negative", c.InterestLift)
	}
	if c.IngestWorkers < 0 {
		return fmt.Errorf("core: ingest workers %d is negative", c.IngestWorkers)
	}
	if _, err := counts.ParseKind(c.CountsBackend); err != nil {
		return err
	}
	if c.Search == SearchFixed {
		if !(c.FixedMinSupport >= 0 && c.FixedMinSupport <= 1 &&
			c.FixedMinConfidence >= 0 && c.FixedMinConfidence <= 1) {
			return fmt.Errorf("core: fixed thresholds (%g, %g) outside [0, 1]",
				c.FixedMinSupport, c.FixedMinConfidence)
		}
	}
	return nil
}
