package counts

import (
	"sort"
	"sync"
)

// SparseArray is the hash-indexed count backend for high-resolution
// mostly-empty grids: memory scales with occupied cells, not grid
// cells. Each occupied cell owns a (nseg+1)-wide slice of one shared
// slab — per-segment counts first, cell total last, exactly the dense
// layout — and a map from row-major cell index to slab offset finds it.
// A lazily built sorted key cache makes Cells iteration row-major
// deterministic, so snapshots are byte-identical to the dense
// reference.
type SparseArray struct {
	shape
	cells map[int64]int // row-major cell index → slab offset
	slab  []uint32

	// keyMu guards the sorted-key cache: concurrent readers may race to
	// build it after a mutation invalidated it. The cache holds every
	// occupied cell index in ascending (= row-major) order.
	keyMu sync.Mutex
	keys  []int64
}

// NewSparse returns an empty sparse backend for an nx × ny grid with an
// RHS attribute of cardinality nseg.
func NewSparse(nx, ny, nseg int) (*SparseArray, error) {
	sh, err := newShape(nx, ny, nseg)
	if err != nil {
		return nil, err
	}
	return &SparseArray{shape: sh, cells: make(map[int64]int)}, nil
}

// slot returns cell (x, y)'s count slab, creating it zeroed when
// absent.
func (s *SparseArray) slot(x, y int) []uint32 {
	idx := s.index(x, y)
	off, ok := s.cells[idx]
	if !ok {
		off = len(s.slab)
		s.slab = append(s.slab, make([]uint32, s.nseg+1)...)
		s.cells[idx] = off
		s.keyMu.Lock()
		s.keys = nil // new cell invalidates the sorted iteration cache
		s.keyMu.Unlock()
	}
	return s.slab[off : off+s.nseg+1 : off+s.nseg+1]
}

// Add records one tuple in cell (x, y) with RHS value seg, saturating
// at MaxUint32 like the dense array. Out-of-range indices panic.
func (s *SparseArray) Add(x, y, seg int) { s.AddN(x, y, seg, 1) }

// AddN is the bulk form of Add: per-cell counters saturate, the 64-bit
// total always advances by n.
func (s *SparseArray) AddN(x, y, seg int, n uint32) {
	if !s.inRange(x, y, seg) {
		s.outOfRange(x, y, seg)
	}
	c := s.slot(x, y)
	c[seg] = satAdd(c[seg], n)
	c[s.nseg] = satAdd(c[s.nseg], n)
	s.n += uint64(n)
}

// sortedKeys returns every occupied cell index ascending, building the
// cache under the lock when a mutation invalidated it.
func (s *SparseArray) sortedKeys() []int64 {
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	if s.keys == nil {
		keys := make([]int64, 0, len(s.cells))
		for idx := range s.cells {
			keys = append(keys, idx)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		s.keys = keys
	}
	return s.keys
}

// Count implements Backend.
func (s *SparseArray) Count(x, y, seg int) uint32 {
	off, ok := s.cells[s.index(x, y)]
	if !ok {
		return 0
	}
	return s.slab[off+seg]
}

// CellTotal implements Backend.
func (s *SparseArray) CellTotal(x, y int) uint32 { return s.Count(x, y, s.nseg) }

// Cells implements Backend: row-major deterministic iteration over
// occupied cells with their full count slab.
func (s *SparseArray) Cells(fn func(x, y int, cell []uint32)) {
	stride := s.nseg + 1
	for _, idx := range s.sortedKeys() {
		off := s.cells[idx]
		x, y := s.xy(idx)
		fn(x, y, s.slab[off:off+stride:off+stride])
	}
}

// Stats implements Backend.
func (s *SparseArray) Stats() Stats {
	return Stats{
		Cells:         s.nx * s.ny,
		OccupiedCells: len(s.cells),
		MemBytes:      len(s.slab)*4 + len(s.cells)*56 + len(s.sortedKeys())*8,
	}
}

func (s *SparseArray) addCell(x, y int, cell []uint32) { accumulate(s.slot(x, y), cell) }

var (
	_ Adder   = (*SparseArray)(nil)
	_ builder = (*SparseArray)(nil)
)
