package dataset

import (
	"context"
	"errors"
	"fmt"
	"io"

	"arcs/internal/cancelcheck"
)

// Tuple is a single record: one encoded float64 per schema attribute.
// Quantitative attributes hold their value, categorical attributes hold
// their dictionary code.
type Tuple []float64

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Source is a resettable stream of tuples. Next returns io.EOF after the
// last tuple. ARCS performs a single pass per mining run but the feedback
// loop may Reset the source to verify candidate segmentations against
// fresh samples.
//
// Implementations are not required to be safe for concurrent use.
type Source interface {
	// Schema describes the tuples produced by Next.
	Schema() *Schema
	// Next returns the next tuple or io.EOF. The returned slice may be
	// reused by subsequent calls; callers that retain tuples must Clone.
	Next() (Tuple, error)
	// Reset rewinds the source to the first tuple.
	Reset() error
}

// SizedSource is implemented by sources that know their tuple count in
// advance, letting consumers preallocate.
type SizedSource interface {
	Source
	// Len reports the total number of tuples the source yields per pass.
	Len() int
}

// Sharder is implemented by sources whose pass can be partitioned into
// disjoint, independently consumable sub-streams — the contract behind
// parallel ingest. The concatenation of Shard(0, n) .. Shard(n-1, n)
// must yield exactly the tuples of one full pass, in order, and distinct
// shards must be safe to consume from distinct goroutines concurrently.
// In-memory tables shard by row range; deterministic generators shard by
// index range. Streaming sources (CSV readers) cannot shard and simply
// do not implement the interface.
type Sharder interface {
	Source
	// Shard returns the i-th of n partitions. Shards may be empty when
	// the source holds fewer than n tuples.
	Shard(i, n int) (Source, error)
}

// ErrSchemaMismatch is returned when a tuple's width does not match the
// schema it is being used with.
var ErrSchemaMismatch = errors.New("dataset: tuple width does not match schema")

// RowError marks an error confined to a single input row — a cell that
// fails to parse, a wrong field count, a non-finite value. The source
// remains usable: the next Next call yields the following row. Consumers
// that tolerate dirty input (see Resilient) skip or quarantine RowErrors;
// everything else propagates them like any other error.
type RowError struct {
	// Path is the originating file ("" for non-file sources) and Row the
	// 1-based row number including the header, so Error renders the
	// conventional file:line position.
	Path string
	Row  int
	// Reason is a short classification key ("parse", "field-count",
	// "category", "non-finite", ...) used for quarantine accounting.
	Reason string
	Err    error
}

// Error renders the file:line position ahead of the underlying cause.
func (e *RowError) Error() string {
	pos := fmt.Sprintf("row %d", e.Row)
	if e.Path != "" {
		pos = fmt.Sprintf("%s:%d", e.Path, e.Row)
	}
	return fmt.Sprintf("dataset: %s: %v", pos, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RowError) Unwrap() error { return e.Err }

// AsRowError extracts a *RowError from err's chain, nil when absent.
func AsRowError(err error) *RowError {
	var re *RowError
	if errors.As(err, &re) {
		return re
	}
	return nil
}

// Transient marks errors worth retrying (injected I/O hiccups, flaky
// network sources). Implementations return true from Transient(); see
// IsTransient for classification.
type Transient interface{ Transient() bool }

// IsTransient reports whether any error in err's chain declares itself
// retryable via the Transient interface.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(Transient); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// ForEach streams src from the beginning and invokes fn for every tuple.
// It resets the source first, so the caller always sees a full pass.
// Iteration stops at the first error from fn.
func ForEach(src Source, fn func(Tuple) error) error {
	return ForEachContext(context.Background(), src, fn)
}

// forEachCheckEvery is the cooperative-cancellation granularity of a
// streaming pass: the context is polled once per this many tuples, so a
// canceled pass stops within a bounded slice of work without putting a
// context poll on every row.
const forEachCheckEvery = 1024

// ForEachContext is ForEach with checkpointed cancellation: the context
// is polled every forEachCheckEvery tuples and iteration stops with the
// cancellation error. A background context adds no per-row cost.
func ForEachContext(ctx context.Context, src Source, fn func(Tuple) error) error {
	if err := src.Reset(); err != nil {
		return fmt.Errorf("dataset: reset: %w", err)
	}
	point := cancelcheck.New(ctx).Point(forEachCheckEvery)
	for {
		if err := point.Check(); err != nil {
			return err
		}
		t, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// Count consumes the source and reports the number of tuples in one pass.
func Count(src Source) (int, error) {
	if ss, ok := src.(SizedSource); ok {
		return ss.Len(), nil
	}
	n := 0
	err := ForEach(src, func(Tuple) error { n++; return nil })
	return n, err
}

// Materialize drains the source into an in-memory Table sharing the
// source's schema, copying each tuple into the table's slabs. A tuple
// whose width differs from the schema's fails with ErrSchemaMismatch.
func Materialize(src Source) (*Table, error) {
	tb := NewTable(src.Schema())
	if err := ForEach(src, tb.Append); err != nil {
		return nil, err
	}
	return tb, nil
}

// Limit wraps a source, yielding at most n tuples per pass.
func Limit(src Source, n int) Source { return &limitSource{src: src, limit: n} }

type limitSource struct {
	src   Source
	limit int
	seen  int
}

func (l *limitSource) Schema() *Schema { return l.src.Schema() }

func (l *limitSource) Next() (Tuple, error) {
	if l.seen >= l.limit {
		return nil, io.EOF
	}
	t, err := l.src.Next()
	if err != nil {
		return nil, err
	}
	l.seen++
	return t, nil
}

func (l *limitSource) Reset() error {
	l.seen = 0
	if err := l.src.Reset(); err != nil {
		return fmt.Errorf("dataset: limit reset: %w", err)
	}
	return nil
}

func (l *limitSource) Len() int {
	if ss, ok := l.src.(SizedSource); ok {
		if n := ss.Len(); n < l.limit {
			return n
		}
	}
	return l.limit
}

// Close forwards to the wrapped source when it is closeable, so wrapping
// a CSVStream in Limit does not leak the underlying file handle or
// swallow its close error.
func (l *limitSource) Close() error {
	if c, ok := l.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// FuncSource adapts a generator function into a Source. The function is
// called with the zero-based position of the tuple to produce; it must be
// deterministic with respect to that position so Reset replays identically.
type FuncSource struct {
	schema *Schema
	n      int
	gen    func(i int, out Tuple)
	pos    int
	buf    Tuple
}

// NewFuncSource builds a deterministic source of n tuples over schema,
// produced by gen writing into the provided buffer.
func NewFuncSource(schema *Schema, n int, gen func(i int, out Tuple)) *FuncSource {
	return &FuncSource{schema: schema, n: n, gen: gen, buf: make(Tuple, schema.Len())}
}

// Schema implements Source.
func (f *FuncSource) Schema() *Schema { return f.schema }

// Len implements SizedSource.
func (f *FuncSource) Len() int { return f.n }

// Next implements Source. The returned tuple is reused across calls.
func (f *FuncSource) Next() (Tuple, error) {
	if f.pos >= f.n {
		return nil, io.EOF
	}
	f.gen(f.pos, f.buf)
	f.pos++
	return f.buf, nil
}

// Reset implements Source.
func (f *FuncSource) Reset() error {
	f.pos = 0
	return nil
}

// Shard implements Sharder: shard i of n covers the contiguous index
// range [i*len/n, (i+1)*len/n). Each shard has a private tuple buffer;
// the generator function itself must be safe for concurrent calls when
// shards are consumed in parallel (position-determinism usually makes it
// a pure function, which is).
func (f *FuncSource) Shard(i, n int) (Source, error) {
	if n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("dataset: shard %d of %d out of range", i, n)
	}
	lo, hi := i*f.n/n, (i+1)*f.n/n
	return NewFuncSource(f.schema, hi-lo, func(j int, out Tuple) { f.gen(lo+j, out) }), nil
}
