package counts

import "fmt"

// defaultMemBudget caps the count state a build may hold in memory when
// no budget is plumbed (Options.MemBudget 0). The paper's design point
// is a grid that comfortably fits main memory (50×50×3 ≈ 30 KB; even
// 1000×1000×16 is 68 MB), so 1 GiB only turns away grids that would
// otherwise OOM-kill the process — and Auto answers that refusal with
// the sparse backend rather than a failure.
const defaultMemBudget = 1 << 30

// DenseArray is the paper's BinArray: a contiguous nx × ny × (nseg+1)
// array of uint32 counts indexed by the bin numbers of the two LHS
// attributes, holding per cell the tuples of each RHS value plus the
// cell total. It is the fastest backend per tuple and the byte-identity
// reference; its memory is fixed by the grid, not the data. Counts are
// uint32: 4 billion tuples per cell exceeds any workload the system
// targets, and counters saturate rather than wrap.
type DenseArray struct {
	shape
	// counts is laid out cell-major: cell (x, y) occupies
	// [(x*ny+y)*(nseg+1), ...+nseg+1), per-segment counts first and the
	// cell total in the final slot — the ARCSBA1 wire layout.
	counts []uint32
}

// memNeeded reports the bytes a dense array of the given dimensions
// requires, or an error when the element count overflows int.
func memNeeded(nx, ny, nseg int) (int64, error) {
	// Multiply stepwise in uint64 and re-check against the int range so
	// nx*ny*(nseg+1) can never wrap silently on any platform.
	const maxInt = int64(^uint(0) >> 1)
	cells := uint64(nx) * uint64(ny)
	if nx != 0 && cells/uint64(nx) != uint64(ny) || cells > uint64(maxInt) {
		return 0, fmt.Errorf("counts: %d×%d cells overflows", nx, ny)
	}
	elems := cells * uint64(nseg+1)
	if cells != 0 && elems/cells != uint64(nseg+1) || elems > uint64(maxInt)/4 {
		return 0, fmt.Errorf("counts: %d×%d×(%d+1) elements overflows", nx, ny, nseg)
	}
	return int64(elems) * 4, nil
}

// NewDense returns an empty dense array for an nx × ny grid with an RHS
// attribute of cardinality nseg, under the default 1 GiB budget.
func NewDense(nx, ny, nseg int) (*DenseArray, error) {
	return newDense(nx, ny, nseg, defaultMemBudget)
}

// newDense validates the array's size before allocating it, so an
// absurd grid (overflowing index arithmetic, or bigger than the budget)
// returns an error naming the size instead of panicking mid-make or
// invoking the OOM killer. A non-positive budget disables the size
// check; overflow is still rejected.
func newDense(nx, ny, nseg int, budget int64) (*DenseArray, error) {
	sh, err := newShape(nx, ny, nseg)
	if err != nil {
		return nil, err
	}
	bytes, err := memNeeded(nx, ny, nseg)
	if err != nil {
		return nil, err
	}
	if budget > 0 && bytes > budget {
		return nil, fmt.Errorf("counts: dense %d×%d×(%d+1) grid needs %d bytes, over the %d-byte budget",
			nx, ny, nseg, bytes, budget)
	}
	return &DenseArray{shape: sh, counts: make([]uint32, bytes/4)}, nil
}

// slab returns cell (x, y)'s counts: per-segment first, total last.
func (d *DenseArray) slab(x, y int) []uint32 {
	base := (x*d.ny + y) * (d.nseg + 1)
	return d.counts[base : base+d.nseg+1 : base+d.nseg+1]
}

// Add records one tuple falling in cell (x, y) with RHS value seg.
// Out-of-range indices panic.
func (d *DenseArray) Add(x, y, seg int) { d.AddN(x, y, seg, 1) }

// AddN records n tuples in cell (x, y) with RHS value seg in one bulk
// accumulation. Per-cell counters saturate at MaxUint32; the 64-bit
// total N always advances by n.
func (d *DenseArray) AddN(x, y, seg int, n uint32) {
	if !d.inRange(x, y, seg) {
		d.outOfRange(x, y, seg)
	}
	c := d.slab(x, y)
	c[seg] = satAdd(c[seg], n)
	c[d.nseg] = satAdd(c[d.nseg], n)
	d.n += uint64(n)
}

// Count implements Backend.
func (d *DenseArray) Count(x, y, seg int) uint32 { return d.slab(x, y)[seg] }

// CellTotal implements Backend.
func (d *DenseArray) CellTotal(x, y int) uint32 { return d.slab(x, y)[d.nseg] }

// Cells implements Backend: a row-major scan that skips empty cells by
// one read of the cell total.
func (d *DenseArray) Cells(fn func(x, y int, cell []uint32)) {
	stride, base := d.nseg+1, 0
	for x := 0; x < d.nx; x++ {
		for y := 0; y < d.ny; y, base = y+1, base+stride {
			if d.counts[base+d.nseg] != 0 {
				fn(x, y, d.counts[base:base+stride:base+stride])
			}
		}
	}
}

// Stats implements Backend.
func (d *DenseArray) Stats() Stats {
	s := Stats{Cells: d.nx * d.ny, MemBytes: len(d.counts) * 4}
	for base := d.nseg; base < len(d.counts); base += d.nseg + 1 {
		if d.counts[base] != 0 {
			s.OccupiedCells++
		}
	}
	return s
}

func (d *DenseArray) addCell(x, y int, cell []uint32) { accumulate(d.slab(x, y), cell) }

var (
	_ Adder   = (*DenseArray)(nil)
	_ builder = (*DenseArray)(nil)
)
