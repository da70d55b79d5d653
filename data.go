package arcs

import (
	"io"

	"arcs/internal/binning"
	"arcs/internal/cluster"
	"arcs/internal/dataset"
	"arcs/internal/synth"
)

// Data model re-exports: the library speaks in terms of schemas, tuples
// and streaming sources defined in the dataset package.
type (
	// Schema is an ordered collection of attributes.
	Schema = dataset.Schema
	// Attribute describes one column (name + kind).
	Attribute = dataset.Attribute
	// Kind distinguishes quantitative from categorical attributes.
	Kind = dataset.Kind
	// Tuple is one record of encoded values.
	Tuple = dataset.Tuple
	// Table is an in-memory tuple collection implementing Source.
	Table = dataset.Table
	// Source is a resettable stream of tuples.
	Source = dataset.Source
	// MultiRule is a clustered rule over more than two attributes.
	MultiRule = cluster.MultiRule
)

// Attribute kinds.
const (
	Quantitative = dataset.Quantitative
	Categorical  = dataset.Categorical
)

// NewSchema constructs a schema from attributes.
func NewSchema(attrs ...Attribute) *Schema { return dataset.NewSchema(attrs...) }

// NewTable creates an empty in-memory table over a schema.
func NewTable(schema *Schema) *Table { return dataset.NewTable(schema) }

// ReadCSV parses comma-separated data with a header row. A nil schema is
// inferred from the data (numeric columns become quantitative).
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) { return dataset.ReadCSV(r, schema) }

// WriteCSV streams a source as comma-separated text with a header row.
func WriteCSV(w io.Writer, src Source) error { return dataset.WriteCSV(w, src) }

// Materialize drains a source into an in-memory table.
func Materialize(src Source) (*Table, error) { return dataset.Materialize(src) }

// Limit wraps a source, yielding at most n tuples per pass.
func Limit(src Source, n int) Source { return dataset.Limit(src, n) }

// DiscretizeCriterion wraps a source, replacing a quantitative attribute
// with a categorical one whose values are equal-width bins over [lo, hi]
// — the paper's §2.2 provision for using a quantitative attribute as the
// RHS segmentation criterion. Bin labels look like "sales[0,100)".
func DiscretizeCriterion(src Source, attr string, lo, hi float64, bins int) (Source, error) {
	b, err := binning.NewEquiWidth(lo, hi, bins)
	if err != nil {
		return nil, err
	}
	return dataset.Discretize(src, attr, b)
}

// Data robustness re-exports: wrap flaky sources in a Resilient to get
// retry-with-backoff on transient errors and bounded row quarantine.
type (
	// RowError locates one bad input row (path, 1-based row number,
	// machine-readable reason).
	RowError = dataset.RowError
	// Retry configures exponential backoff for transient source errors.
	Retry = dataset.Retry
	// Quarantine bounds how many bad rows a pass may skip.
	Quarantine = dataset.Quarantine
	// Resilient is a Source wrapper applying Retry and Quarantine.
	Resilient = dataset.Resilient
	// ResilientStats counts retries and quarantined rows by reason.
	ResilientStats = dataset.ResilientStats
)

// ErrTooManyBadRows reports a pass that exceeded Quarantine.MaxBadRows.
var ErrTooManyBadRows = dataset.ErrTooManyBadRows

// NewResilient wraps a source with retry and quarantine policies.
func NewResilient(src Source, retry Retry, q Quarantine) *Resilient {
	return dataset.NewResilient(src, retry, q)
}

// AsRowError extracts a *RowError from err's chain, nil when absent.
func AsRowError(err error) *RowError { return dataset.AsRowError(err) }

// IsTransient reports whether any error in err's chain declares itself
// transient (worth retrying).
func IsTransient(err error) bool { return dataset.IsTransient(err) }

// clusterCombine adapts the internal combination entry point.
func clusterCombine(a, b []ClusteredRule) ([]MultiRule, error) { return cluster.Combine(a, b) }

// SynthConfig parameterizes the bundled synthetic data generator — the
// nine-attribute person schema and ten classification functions of
// Agrawal et al. used throughout the paper's evaluation.
type SynthConfig = synth.Config

// NewGenerator constructs a deterministic synthetic tuple source: tuple
// i depends only on the seed and i, and the source can be reset and
// sharded.
func NewGenerator(cfg SynthConfig) (Source, error) {
	st, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return st.Source(), nil
}

// SynthSchema builds the generator's schema, useful for constructing
// compatible tables by hand.
func SynthSchema() *Schema { return synth.NewSchema() }
