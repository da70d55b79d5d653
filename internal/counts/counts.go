// Package counts is the count substrate behind the ARCS pipeline: the
// BinArray of paper §3.1. It is filled in one pass over the data, after
// which the threshold search only reads it; everything downstream of the
// build — the rule engine, grid construction, threshold enumeration —
// needs only the small read API captured here as Backend.
//
// Two in-memory backends fill that API, selected by memory budget
// (Options/Kind): the dense DenseArray is the reference and the fast
// path; SparseArray keeps memory proportional to occupied cells for
// high-resolution mostly-empty grids. Every build runs the same
// tuple-to-cell pass (fill) into a backend of the selected kind,
// sequentially (Build) or sharded across workers and merged
// (BuildSharded). Both backends produce counts byte-identical to the
// dense reference (see Snapshot), at any worker count — saturating
// addition is associative and commutative, so no partitioning or merge
// order can change a single bit.
package counts

import (
	"context"
	"fmt"
	"math"

	"arcs/internal/binning"
	"arcs/internal/dataset"
)

// Backend is the read API of a built count substrate. All methods must
// be safe for concurrent readers once the backend is built; mutation
// (if any) goes through the optional Adder extension. The derived
// measure Occupied is a free function over Cells.
type Backend interface {
	// NX and NY report the grid dimensions in bins.
	NX() int
	NY() int
	// NSeg reports the cardinality of the RHS segmentation attribute.
	NSeg() int
	// N reports the total number of tuples counted.
	N() uint64
	// Count returns |(i, j, Gk)| of §3.2: tuples in cell (x, y) with RHS
	// value seg.
	Count(x, y, seg int) uint32
	// CellTotal returns |(i, j)|: all tuples in cell (x, y).
	CellTotal(x, y int) uint32
	// Cells invokes fn for every occupied cell in deterministic
	// row-major order (x outer, y inner) with the full count slab
	// [seg 0 .. seg nseg-1, total]. The slice is only valid during the
	// callback and must not be mutated. This is the bulk read path:
	// rule mining, snapshots, occupancy metrics and merges iterate
	// occupied cells instead of scanning the grid.
	Cells(fn func(x, y int, cell []uint32))
	// Stats summarizes the backend's shape and footprint.
	Stats() Stats
}

// Adder is the mutable extension of Backend, through which incremental
// tuples reach a built backend (core.Extend). Both in-tree backends
// implement it.
type Adder interface {
	Backend
	// Add records one tuple in cell (x, y) with RHS value seg.
	Add(x, y, seg int)
}

// Stats summarizes a built backend's shape and footprint for the
// observability layer.
type Stats struct {
	// Cells is nx*ny, the grid size.
	Cells int
	// OccupiedCells counts cells holding at least one tuple.
	OccupiedCells int
	// MemBytes is the resident size of the backing structures.
	MemBytes int
}

// Occupied invokes fn for every cell with at least one tuple of RHS
// value seg, passing the segment count and the cell total, in Cells'
// row-major order.
func Occupied(b Backend, seg int, fn func(x, y int, segCount, cellTotal uint32)) {
	nseg := b.NSeg()
	b.Cells(func(x, y int, cell []uint32) {
		if c := cell[seg]; c > 0 {
			fn(x, y, c, cell[nseg])
		}
	})
}

// shape is the geometry and tuple total every backend and builder
// carries: an nx × ny grid over an RHS attribute of cardinality nseg,
// and the number of tuples counted.
type shape struct {
	nx, ny, nseg int
	n            uint64
}

func newShape(nx, ny, nseg int) (shape, error) {
	if nx <= 0 || ny <= 0 || nseg <= 0 {
		return shape{}, fmt.Errorf("counts: invalid dimensions %d×%d×%d", nx, ny, nseg)
	}
	// The cell index must fit int64 even when nx*ny overflows int.
	if uint64(nx) > math.MaxInt64/uint64(ny) {
		return shape{}, fmt.Errorf("counts: %d×%d cell index overflows", nx, ny)
	}
	return shape{nx: nx, ny: ny, nseg: nseg}, nil
}

// NX implements Backend.
func (s *shape) NX() int { return s.nx }

// NY implements Backend.
func (s *shape) NY() int { return s.ny }

// NSeg implements Backend.
func (s *shape) NSeg() int { return s.nseg }

// N implements Backend.
func (s *shape) N() uint64 { return s.n }

// index is the row-major cell index of (x, y); ascending index is
// row-major (x outer, y inner) order. xy inverts it.
func (s *shape) index(x, y int) int64 { return int64(x)*int64(s.ny) + int64(y) }

func (s *shape) xy(idx int64) (x, y int) { return int(idx / int64(s.ny)), int(idx % int64(s.ny)) }

// inRange reports whether (x, y, seg) addresses a cell and segment of
// the grid; negative indices wrap to huge unsigned values. A miss
// always indicates a binner bug, never bad data, so callers panic
// through outOfRange.
func (s *shape) inRange(x, y, seg int) bool {
	return uint(x) < uint(s.nx) && uint(y) < uint(s.ny) && uint(seg) < uint(s.nseg)
}

func (s *shape) outOfRange(x, y, seg int) {
	panic(fmt.Sprintf("counts: cell (%d, %d, %d) out of range %d×%d×%d", x, y, seg, s.nx, s.ny, s.nseg))
}

// addTuples advances the tuple total by n. A merge moves whole count
// slabs with addCell and the exact total with addTuples: saturated cell
// totals cannot reconstruct it.
func (s *shape) addTuples(n uint64) { s.n += n }

// satAdd is the saturating accumulation every count goes through:
// counters pin at MaxUint32 rather than wrapping, so a cell that
// overflows its uint32 reads as "at least 4 billion" instead of a small
// garbage count. Saturating addition of non-negative values is
// associative and commutative, so sharded merges remain byte-identical
// to a sequential pass even at the saturation point.
func satAdd(c, n uint32) uint32 {
	if c > math.MaxUint32-n {
		return math.MaxUint32
	}
	return c + n
}

// accumulate adds count slab src into dst element-wise with saturation:
// the per-cell step of sharded merges.
// Copying the stored total instead of re-deriving it keeps saturated
// cells byte-identical.
func accumulate(dst, src []uint32) {
	for i, v := range src {
		if v != 0 {
			dst[i] = satAdd(dst[i], v)
		}
	}
}

// builder is the write side of one build. Both backends are their own
// mutable builders: the fill pass feeds them tuples through AddN;
// merges feed them whole count slabs through addCell and the exact
// tuple total through addTuples.
type builder interface {
	Backend
	AddN(x, y, seg int, n uint32)
	addCell(x, y int, cell []uint32)
	addTuples(n uint64)
}

// newBuilder is the one backend-kind dispatch: every build and shard
// starts from it. Auto (never passed by a resolved build) and
// unknown kinds get the dense reference.
func newBuilder(kind Kind, nx, ny, nseg int, opts Options) (builder, error) {
	if kind == Sparse {
		s, err := NewSparse(nx, ny, nseg)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	d, err := newDense(nx, ny, nseg, opts.budget())
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Spec carries everything a build pass needs to map a tuple to a cell:
// the schema positions of the two LHS attributes and the criterion, the
// fitted binners, and the criterion cardinality.
type Spec struct {
	XIdx, YIdx, CritIdx int
	XBinner, YBinner    *binning.Binner
	NSeg                int
}

// Build fills a count backend from one sequential pass over src.
// Options.Kind and MemBudget pick the backend — Auto selects dense when
// the full grid fits the budget and sparse otherwise, so a grid the
// dense array refuses under the budget still builds. The resulting
// counts are bit-identical across both backends.
func Build(ctx context.Context, src dataset.Source, spec Spec, opts Options) (Backend, error) {
	return newFilled(ctx, src, spec, resolveKind(spec, opts, 1), opts)
}

// newFilled runs the fill pass into a fresh builder of the given kind.
func newFilled(ctx context.Context, src dataset.Source, spec Spec, kind Kind, opts Options) (builder, error) {
	b, err := newBuilder(kind, spec.XBinner.NumBins(), spec.YBinner.NumBins(), spec.NSeg, opts)
	if err != nil {
		return nil, err
	}
	if err := fill(ctx, src, spec, b); err != nil {
		return nil, err
	}
	return b, nil
}

// fill is the one tuple-to-cell pass of Figure 2's binner component: it
// streams src once through dataset.ForEachContext (which polls the
// context at checkpoint granularity), maps the two LHS attributes
// through their binners and the criterion through its category code,
// and adds each tuple to b. The pass allocates nothing per tuple
// (guarded by TestIngestZeroAllocPerTuple).
func fill(ctx context.Context, src dataset.Source, spec Spec, b builder) error {
	xb, yb := spec.XBinner, spec.YBinner
	width := src.Schema().Len()
	return dataset.ForEachContext(ctx, src, func(t dataset.Tuple) error {
		if len(t) != width {
			return dataset.ErrSchemaMismatch
		}
		seg := int(t[spec.CritIdx])
		if seg < 0 || seg >= spec.NSeg {
			return criterionError(src.Schema().At(spec.CritIdx), seg, spec.NSeg)
		}
		b.AddN(xb.Bin(t[spec.XIdx]), yb.Bin(t[spec.YIdx]), seg, 1)
		return nil
	})
}

// criterionError reports a criterion code outside the build's 0..nseg-1,
// naming the label when the schema knows it: a streaming source
// registers labels as it meets them, so a label first seen after the
// build was sized arrives here with a code but no slot.
func criterionError(a *dataset.Attribute, seg, nseg int) error {
	if seg >= 0 && seg < a.NumCategories() {
		return fmt.Errorf("counts: criterion %q value %q (code %d) out of range 0..%d: the label was not known when the count was sized",
			a.Name, a.Category(seg), seg, nseg-1)
	}
	return fmt.Errorf("counts: criterion value %d out of range 0..%d", seg, nseg-1)
}

// transfer accumulates every occupied cell of src into dst and
// advances dst's tuple total by src's: the one per-cell step of a
// sharded merge.
func transfer(dst builder, src Backend) {
	src.Cells(dst.addCell)
	dst.addTuples(src.N())
}
