package dataset

import (
	"fmt"
	"io"
)

// A table stores its rows back to back in flat float64 slabs of
// slabRows rows each. slabRows is a power of two, so Row finds a row's
// slab with a shift and its place in the slab with a mask.
const (
	slabShift = 12
	slabRows  = 1 << slabShift
	// firstSlabRows is the first slab's starting size; it doubles up to
	// slabRows as rows arrive, so a small table stays small.
	firstSlabRows = 64
)

// Table is an in-memory, row-major collection of tuples with a schema.
// It implements SizedSource, so it can be used anywhere a stream is
// expected, and supports random access for sampling and classification.
//
// Rows live in pointer-free slabs of 4,096 rows, so a table costs one
// allocation per slab rather than a slice header per row. Slice and
// Shard return views that read their parent's slabs from a row offset;
// a view copies its rows into slabs of its own before its first append.
type Table struct {
	schema *Schema
	width  int
	slabs  [][]float64
	off    int // the first row's position in slabs; 0 unless shared
	n      int
	shared bool // a Slice or Shard view of another table's slabs
	cursor int
}

// NewTable creates an empty table over schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema, width: schema.Len()}
}

// Schema implements Source.
func (t *Table) Schema() *Schema { return t.schema }

// Len implements SizedSource.
func (t *Table) Len() int { return t.n }

// Row returns the i-th tuple, a full-capacity view of the table's
// storage: appending to it cannot overwrite the next row. The tuple is
// not copied; callers must not modify it unless they own the table.
func (t *Table) Row(i int) Tuple {
	if uint(i) >= uint(t.n) {
		panic("dataset: row index out of range")
	}
	j := t.off + i
	k := (j & (slabRows - 1)) * t.width
	return t.slabs[j>>slabShift][k : k+t.width : k+t.width]
}

// grow adds a row at the end of the table and returns it for the
// caller to fill.
func (t *Table) grow() Tuple {
	if t.shared {
		v := *t
		t.slabs, t.off, t.n, t.shared = nil, 0, 0, false
		for i := range v.n {
			copy(t.grow(), v.Row(i))
		}
	}
	k, w := t.n>>slabShift, t.width
	if k == len(t.slabs) {
		rows := slabRows
		if k == 0 {
			rows = firstSlabRows
		}
		t.slabs = append(t.slabs, make([]float64, rows*w))
	}
	o := (t.n & (slabRows - 1)) * w
	if o+w > len(t.slabs[k]) { // only the first slab grows
		s := make([]float64, 2*len(t.slabs[k]))
		copy(s, t.slabs[k])
		t.slabs[k] = s
	}
	t.n++
	return t.slabs[k][o : o+w : o+w]
}

// Append copies a tuple's values into a new last row, so the caller may
// reuse tp.
func (t *Table) Append(tp Tuple) error {
	if len(tp) != t.width {
		return fmt.Errorf("%w: tuple has %d values, schema has %d attributes",
			ErrSchemaMismatch, len(tp), t.width)
	}
	copy(t.grow(), tp)
	return nil
}

// MustAppend is Append but panics on width mismatch.
func (t *Table) MustAppend(tp Tuple) {
	if err := t.Append(tp); err != nil {
		panic(err)
	}
}

// AppendValues encodes a record given in schema order, where categorical
// attributes are passed as labels and quantitative attributes as float64,
// int or string parsable values are NOT supported — use the CSV reader for
// textual input. Accepted types per attribute: float64/int for
// quantitative, string for categorical.
func (t *Table) AppendValues(values ...interface{}) error {
	if len(values) != t.schema.Len() {
		return fmt.Errorf("%w: %d values for %d attributes", ErrSchemaMismatch, len(values), t.schema.Len())
	}
	tp := make(Tuple, len(values))
	for i, v := range values {
		a := t.schema.At(i)
		switch a.Kind {
		case Quantitative:
			switch x := v.(type) {
			case float64:
				tp[i] = x
			case int:
				tp[i] = float64(x)
			default:
				return fmt.Errorf("dataset: attribute %q is quantitative; got %T", a.Name, v)
			}
		case Categorical:
			label, ok := v.(string)
			if !ok {
				return fmt.Errorf("dataset: attribute %q is categorical; got %T", a.Name, v)
			}
			code, err := a.CategoryCode(label)
			if err != nil {
				return err
			}
			tp[i] = float64(code)
		}
	}
	return t.Append(tp)
}

// Next implements Source.
func (t *Table) Next() (Tuple, error) {
	if t.cursor >= t.n {
		return nil, io.EOF
	}
	r := t.Row(t.cursor)
	t.cursor++
	return r, nil
}

// Reset implements Source.
func (t *Table) Reset() error {
	t.cursor = 0
	return nil
}

// Column extracts attribute i of every row into a fresh slice.
func (t *Table) Column(i int) []float64 {
	out := make([]float64, t.n)
	for r := range out {
		out[r] = t.Row(r)[i]
	}
	return out
}

// Slice returns a view of rows [lo, hi) of t. The view reads t's
// storage, so a change to a row through either table shows in both, until
// the view's first Append copies its rows out.
func (t *Table) Slice(lo, hi int) *Table {
	if lo < 0 || hi < lo || hi > t.n {
		panic(fmt.Sprintf("dataset: rows [%d, %d) of a %d-row table", lo, hi, t.n))
	}
	return &Table{schema: t.schema, width: t.width, slabs: t.slabs, off: t.off + lo, n: hi - lo, shared: true}
}

// Shard implements Sharder: shard i of n is the contiguous row range
// [i*len/n, (i+1)*len/n) as a Slice view. Each shard has its own cursor,
// so concurrent consumption from distinct goroutines is safe as long as
// nobody mutates the rows.
func (t *Table) Shard(i, n int) (Source, error) {
	if n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("dataset: shard %d of %d out of range", i, n)
	}
	return t.Slice(i*t.n/n, (i+1)*t.n/n), nil
}

// Select returns a new table holding copies of the rows at the given
// indices.
func (t *Table) Select(idx []int) *Table {
	out := NewTable(t.schema)
	for _, j := range idx {
		copy(out.grow(), t.Row(j))
	}
	return out
}

// Filter returns a new table holding copies of the rows for which keep
// returns true.
func (t *Table) Filter(keep func(Tuple) bool) *Table {
	out := NewTable(t.schema)
	for i := range t.n {
		if r := t.Row(i); keep(r) {
			copy(out.grow(), r)
		}
	}
	return out
}
