// Package arcs is a Go implementation of ARCS, the Association Rule
// Clustering System of Lent, Swami and Widom ("Clustering Association
// Rules", ICDE 1997).
//
// ARCS segments a relational table over two user-chosen quantitative
// LHS attributes and a categorical criterion attribute: it bins the
// attributes, mines two-dimensional association rules in a single pass,
// plots them on a grid, smooths the grid with an image-processing
// low-pass filter, clusters adjacent rules into rectangles with the
// BitOp algorithm, prunes insignificant clusters, and tunes the support
// and confidence thresholds with a search that minimizes an MDL
// cost measured against samples of the data. The result is a small set
// of readable clustered association rules such as
//
//	40 <= age < 42 AND 40000 <= salary < 60000 => group = A
//
// # Quick start
//
//	tb, err := arcs.ReadCSV(file, nil)
//	if err != nil { ... }
//	res, err := arcs.Mine(tb, arcs.Config{
//		XAttr: "age", YAttr: "salary",
//		CritAttr: "group", CritValue: "A",
//	})
//	for _, rule := range res.Rules {
//		fmt.Println(rule)
//	}
//
// For repeated mining (different criterion values or thresholds) build a
// System once with New; the binned counts stay in memory and re-mining
// never re-reads the data.
package arcs

import (
	"context"
	"io"

	"arcs/internal/cluster"
	"arcs/internal/core"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/mdl"
	"arcs/internal/optimizer"
	"arcs/internal/rules"
	"arcs/internal/segment"
)

// Config parameterizes an ARCS run. Zero values take the paper's
// defaults (50 bins, equi-width binning, binary smoothing, 1% pruning,
// unbiased MDL weights, threshold-walk search).
type Config = core.Config

// System is an initialized ARCS instance over one dataset: binned counts
// plus a verification sample, supporting any number of mining runs.
type System = core.System

// Result is the outcome of a run: the final clustered rules, the chosen
// thresholds, the MDL cost, verification error counts and the search
// trace.
type Result = core.Result

// CacheStats reports how many of a run's probes the probe cache answered
// (Result.Cache), counted from the run's trace. The cumulative view over
// a System's runs is the observer's probe_cache_hits_total and
// probe_cache_misses_total counters.
type CacheStats = core.CacheStats

// ClusteredRule is one clustered association rule of a segmentation.
type ClusteredRule = rules.ClusteredRule

// Counts is the read API of a System's built count substrate
// (System.Counts): grid dimensions, the per-cell counts of paper §3.2
// (Count, CellTotal), row-major iteration over occupied cells (Cells)
// and the backend's footprint (Stats). One package implements it with
// two in-memory backends — dense, and sparse when the dense grid would
// not fit Config.MemBudget — chosen by Config.MemBudget and
// Config.CountsBackend; sequential and sharded (Config.IngestWorkers)
// builds both return one of them, and every combination produces
// bit-identical counts.
type Counts = counts.Backend

// MDLWeights biases the cost function (wc, we of paper §3.6).
type MDLWeights = mdl.Weights

// ThresholdWalk configures the paper's low-to-high threshold search.
type ThresholdWalk = optimizer.ThresholdWalk

// Anneal configures the simulated-annealing search alternative.
type Anneal = optimizer.Anneal

// AttributeScore is an attribute ranked by information gain against the
// criterion, from SelectAttributePair.
type AttributeScore = core.AttributeScore

// BinStrategy selects how quantitative attributes are partitioned.
type BinStrategy = core.BinStrategy

// SmoothingMode selects the grid-smoothing preprocessing.
type SmoothingMode = core.SmoothingMode

// SearchStrategy selects the threshold optimizer.
type SearchStrategy = core.SearchStrategy

// Binning strategies for quantitative attributes.
const (
	BinEquiWidth   = core.BinEquiWidth
	BinEquiDepth   = core.BinEquiDepth
	BinHomogeneity = core.BinHomogeneity
	BinSupervised  = core.BinSupervised
)

// Grid smoothing modes (paper §3.4 and §5).
const (
	SmoothBinary   = core.SmoothBinary
	SmoothOff      = core.SmoothOff
	SmoothWeighted = core.SmoothWeighted
)

// Threshold search strategies (paper §3.7 and §5).
const (
	SearchWalk   = core.SearchWalk
	SearchAnneal = core.SearchAnneal
	SearchFixed  = core.SearchFixed
)

// RunError is the structured failure of a pipeline run: the phase that
// failed, the cause (errors.Is sees context.Canceled through it), and
// whether a degraded partial Result accompanies the error.
type RunError = core.RunError

// PanicError is a panic recovered inside a single threshold probe, with
// the stack captured at the point of panic. The search skips the failed
// probe and continues.
type PanicError = core.PanicError

// AsRunError extracts a *RunError from err's chain, nil when absent.
func AsRunError(err error) *RunError { return core.AsRunError(err) }

// AsPanicError extracts a *PanicError from err's chain, nil when absent.
func AsPanicError(err error) *PanicError { return core.AsPanicError(err) }

// New builds a System from a tuple source, performing the binning pass
// and drawing the verification sample.
func New(src Source, cfg Config) (*System, error) {
	return core.New(src, cfg)
}

// NewContext is New with cooperative cancellation of the binning and
// sampling passes. A canceled initialization returns no System — a
// half-binned count array would bias every later run.
func NewContext(ctx context.Context, src Source, cfg Config) (*System, error) {
	return core.NewContext(ctx, src, cfg)
}

// Mine is the one-shot convenience API: build a System and run the full
// threshold search for cfg.CritValue.
func Mine(src Source, cfg Config) (*Result, error) {
	sys, err := core.New(src, cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// MineContext is Mine with cooperative cancellation and graceful
// degradation: cancellation mid-search returns the best-so-far Result
// with Result.Degraded set alongside a *RunError with Partial=true. See
// System.RunValueContext for the full contract.
func MineContext(ctx context.Context, src Source, cfg Config) (*Result, error) {
	sys, err := core.NewContext(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// SegmentAll builds a System and computes a segmentation for every value
// of the criterion attribute, reusing the single binning pass.
func SegmentAll(src Source, cfg Config) (map[string]*Result, error) {
	sys, err := core.New(src, cfg)
	if err != nil {
		return nil, err
	}
	return sys.SegmentAll()
}

// SegmentAllContext is SegmentAll with cooperative cancellation: on
// cancel the returned map holds every completed (possibly degraded)
// per-value result and the error reports Partial when it is non-empty.
func SegmentAllContext(ctx context.Context, src Source, cfg Config) (map[string]*Result, error) {
	sys, err := core.NewContext(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	return sys.SegmentAllContext(ctx)
}

// SelectAttributePair ranks quantitative attributes by information gain
// against the criterion attribute and returns the best two — an
// automated alternative to choosing the LHS attributes by hand.
func SelectAttributePair(tb *Table, critAttr string, bins int) (x, y string, scores []AttributeScore, err error) {
	return core.SelectAttributePair(tb, critAttr, bins)
}

// PairScore is a candidate LHS pair scored by joint information gain.
type PairScore = core.PairScore

// SelectAttributePairJoint scores every pair of quantitative attributes
// by the information gain of their joint 2D partition, detecting pairs
// that are individually uninformative but jointly decisive.
func SelectAttributePairJoint(tb *Table, critAttr string, bins int) (x, y string, scores []PairScore, err error) {
	return core.SelectAttributePairJoint(tb, critAttr, bins)
}

// CombineRules merges two-attribute clustered rules from two different
// attribute pairs sharing one attribute into rules over three
// attributes (paper §5 future work). See the cluster package for
// semantics.
func CombineRules(a, b []ClusteredRule) ([]MultiRule, error) {
	return clusterCombine(a, b)
}

// CombineChain iteratively combines clustered-rule sets from a chain of
// attribute pairs — (A,B), (B,C), (C,D), ... — into rules over all the
// attributes involved, intersecting every shared attribute's ranges.
func CombineChain(ruleSets ...[]ClusteredRule) ([]MultiRule, error) {
	return cluster.CombineChain(ruleSets...)
}

// MultiRuleStats are the verified joint measures of a combined rule.
type MultiRuleStats = cluster.MultiRuleStats

// VerifyMultiRule measures a combined rule's true joint support and
// confidence against a table (the Combine* constructors only estimate
// them conservatively from the 2D parts). critAttr names the criterion
// attribute.
func VerifyMultiRule(m MultiRule, tb *Table, critAttr string) (MultiRuleStats, error) {
	idx, err := tb.Schema().Index(critAttr)
	if err != nil {
		return MultiRuleStats{}, err
	}
	return cluster.VerifyMultiRule(m, tb, idx)
}

// SegmentModel is a serializable segmentation artifact: save a mined
// segmentation to JSON, load it later and apply it to new data.
type SegmentModel = segment.Model

// NewSegmentModel packages a Result's rules into a persistable model.
func NewSegmentModel(res *Result) (*SegmentModel, error) {
	return segment.New(res.Rules, res.MinSupport, res.MinConfidence)
}

// ReadSegmentModel deserializes a model written by SegmentModel.Write.
func ReadSegmentModel(r io.Reader) (*SegmentModel, error) {
	return segment.Read(r)
}

// ensure dataset types are referenced (aliases live in data.go).
var _ = dataset.Quantitative
