package counts

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"arcs/internal/vfs"
)

// The spill backend is a classic external sort, so neither grid
// resolution nor dataset size is bound by RAM:
//
//	ingest → bounded sparse accumulator → sorted run files → k-way
//	merge → one sorted record file + an in-RAM cell index
//
// Run files ("ARCSRN1\n" magic, record count, then records) and the
// final segment file ("ARCSSP1\n" magic, nx/ny/nseg/n header, then
// records) share one record shape: the row-major cell index as uint64
// followed by the (nseg+1)-wide uint32 count slab, little-endian —
// per-segment counts first, cell total last, exactly the dense layout.
// Records are strictly ascending by cell index within every file.
//
// Crash behavior: every write path (run flush, final merge) is
// buffered, fsynced and length-validated, so ENOSPC, fsync faults and
// torn writes fail the build with an error before a backend exists.
// Silent short reads during the merge are caught by record-count
// validation (each cursor knows exactly how many bytes its run
// promised). After the build, positioned reads serve the probe path
// lock-free; a read fault there panics rather than returning a zero
// count — the engine's per-probe panic isolation contains it, and a
// corrupt count is never served as data.

var (
	runMagic   = []byte("ARCSRN1\n")
	spillMagic = []byte("ARCSSP1\n")
)

// spillSeq disambiguates spill file names within a process; the PID
// disambiguates across processes sharing a spill directory.
var spillSeq atomic.Uint64

// spillReadBatch is how many records sequential iteration (Cells and
// the run cursors) pulls per positioned read.
const spillReadBatch = 1024

// minAccumulatorCells floors the spill accumulator so a tiny budget
// still amortizes run-file overhead over a useful number of cells.
const minAccumulatorCells = 1024

// SpillArray is the spill-to-disk count backend: an immutable sorted
// record file on disk plus a sorted in-RAM cell index (8 bytes per
// occupied cell). Point reads binary-search the index and issue one
// positioned read; iteration streams the file in batches. All reads
// are safe for concurrent use — positioned reads share no cursor.
type SpillArray struct {
	shape
	idx  []int64 // sorted row-major indices of occupied cells
	fs   vfs.FS
	path string
	r    vfs.ReaderAtFile
	dir  string // spill directory, for permute rebuilds

	closeOnce sync.Once
}

func (s *SpillArray) stride() int  { return s.nseg + 1 }
func (s *SpillArray) recSize() int { return 8 + s.stride()*4 }

// spillHeaderSize is the final file's header: magic + nx, ny, nseg, n.
const spillHeaderSize = 8 + 4*8

// Close releases the open record file and deletes it. The backend is
// unusable afterwards; a finalizer calls Close if the last reference
// is dropped without one, so abandoned backends do not leak
// descriptors or disk in a long-running daemon.
func (s *SpillArray) Close() error {
	var err error
	s.closeOnce.Do(func() {
		runtime.SetFinalizer(s, nil)
		err = s.r.Close()
		_ = s.fs.Remove(s.path)
	})
	return err
}

// readAt reads exactly len(p) bytes at off. Any failure — an I/O
// error or a silent short read — panics: a spill file that stops
// answering cannot be allowed to masquerade as empty cells.
func (s *SpillArray) readAt(p []byte, off int64) {
	n, err := s.r.ReadAt(p, off)
	if err != nil || n != len(p) {
		panic(fmt.Sprintf("counts: spill backend %s: read %d bytes at %d: n=%d err=%v (refusing to serve corrupt counts)",
			s.path, len(p), off, n, err))
	}
}

// recOffset is the file offset of the i-th record's count slab.
func (s *SpillArray) recOffset(i int) int64 {
	return spillHeaderSize + int64(i)*int64(s.recSize()) + 8
}

// find binary-searches the cell index; ok reports presence.
func (s *SpillArray) find(x, y int) (i int, ok bool) {
	idx := s.index(x, y)
	i = sort.Search(len(s.idx), func(i int) bool { return s.idx[i] >= idx })
	return i, i < len(s.idx) && s.idx[i] == idx
}

func (s *SpillArray) readSlot(x, y, slot int) uint32 {
	i, ok := s.find(x, y)
	if !ok {
		return 0
	}
	var buf [4]byte
	s.readAt(buf[:], s.recOffset(i)+int64(slot)*4)
	return binary.LittleEndian.Uint32(buf[:])
}

// Count implements Backend.
func (s *SpillArray) Count(x, y, seg int) uint32 { return s.readSlot(x, y, seg) }

// CellTotal implements Backend.
func (s *SpillArray) CellTotal(x, y int) uint32 { return s.readSlot(x, y, s.nseg) }

// Cells implements Backend: it streams the record file (= row-major
// order) in batches, decoding each count slab into a reused buffer.
func (s *SpillArray) Cells(fn func(x, y int, cell []uint32)) {
	recSize := s.recSize()
	stride := s.stride()
	buf := make([]byte, spillReadBatch*recSize)
	cell := make([]uint32, stride)
	for start := 0; start < len(s.idx); start += spillReadBatch {
		nrec := len(s.idx) - start
		if nrec > spillReadBatch {
			nrec = spillReadBatch
		}
		chunk := buf[:nrec*recSize]
		s.readAt(chunk, spillHeaderSize+int64(start)*int64(recSize))
		for r := 0; r < nrec; r++ {
			rec := chunk[r*recSize : (r+1)*recSize]
			idx := int64(binary.LittleEndian.Uint64(rec[:8]))
			if idx != s.idx[start+r] {
				panic(fmt.Sprintf("counts: spill backend %s: record %d holds cell %d, index says %d (refusing to serve corrupt counts)",
					s.path, start+r, idx, s.idx[start+r]))
			}
			decodeCell(cell, rec[8:])
			x, y := s.xy(idx)
			fn(x, y, cell)
		}
	}
}

// decodeCell decodes a little-endian count slab.
func decodeCell(cell []uint32, b []byte) {
	for k := range cell {
		cell[k] = binary.LittleEndian.Uint32(b[k*4:])
	}
}

// Stats implements Backend: resident memory is the cell index; the
// record file is accounted as disk bytes.
func (s *SpillArray) Stats() Stats {
	return Stats{
		Cells:         s.nx * s.ny,
		OccupiedCells: len(s.idx),
		MemBytes:      len(s.idx) * 8,
		DiskBytes:     spillHeaderSize + int64(len(s.idx))*int64(s.recSize()),
	}
}

var _ Backend = (*SpillArray)(nil)

// spillBuilder accumulates tuples in a bounded sparse array, flushing
// sorted run files whenever the accumulator reaches its cell cap.
type spillBuilder struct {
	shape
	fs       vfs.FS
	dir      string
	prefix   string
	maxCells int
	acc      *SparseArray
	runs     []spillRun
	runSeq   int
}

type spillRun struct {
	path    string
	records int
}

func newSpillBuilder(nx, ny, nseg int, opts Options) (*spillBuilder, error) {
	dir := opts.SpillDir
	if dir == "" {
		dir = os.TempDir()
	}
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("counts: spill dir: %w", err)
	}
	maxCells := minAccumulatorCells
	if b := opts.budget(); b > 0 {
		if c := b / sparseBytesPerCell(nseg); c > int64(maxCells) {
			if c > 1<<28 {
				c = 1 << 28
			}
			maxCells = int(c)
		}
	}
	acc, err := NewSparse(nx, ny, nseg)
	if err != nil {
		return nil, err
	}
	return &spillBuilder{
		shape:    acc.shape,
		fs:       fsys,
		dir:      dir,
		prefix:   fmt.Sprintf("arcs-spill-%d-%d", os.Getpid(), spillSeq.Add(1)),
		maxCells: maxCells,
		acc:      acc,
	}, nil
}

func (b *spillBuilder) add(x, y, seg int) error { return b.addN(x, y, seg, 1) }

// addN records n tuples in one cell; the accumulator flushes to a run
// file when it hits its budgeted cell cap.
func (b *spillBuilder) addN(x, y, seg int, n uint32) error {
	b.acc.AddN(x, y, seg, n)
	b.n += uint64(n)
	if len(b.acc.cells) >= b.maxCells {
		return b.flushRun()
	}
	return nil
}

// addCell accumulates a raw count slab (the permute step; does not
// advance n).
func (b *spillBuilder) addCell(x, y int, cell []uint32) error {
	accumulate(b.acc.slot(x, y), cell)
	if len(b.acc.cells) >= b.maxCells {
		return b.flushRun()
	}
	return nil
}

// flushRun writes the accumulator as one sorted, fsynced run file and
// resets it. An empty accumulator is a no-op.
func (b *spillBuilder) flushRun() error {
	if len(b.acc.cells) == 0 {
		return nil
	}
	b.runSeq++
	path := filepath.Join(b.dir, fmt.Sprintf("%s-%06d.run", b.prefix, b.runSeq))
	f, err := b.fs.Create(path)
	if err != nil {
		return fmt.Errorf("counts: spill run: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	werr := func() error {
		if _, err := w.Write(runMagic); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(b.acc.cells))); err != nil {
			return err
		}
		var ferr error
		rec := make([]byte, 8+(b.nseg+1)*4)
		b.acc.Cells(func(x, y int, cell []uint32) {
			if ferr != nil {
				return
			}
			binary.LittleEndian.PutUint64(rec[:8], uint64(b.index(x, y)))
			for k, v := range cell {
				binary.LittleEndian.PutUint32(rec[8+k*4:], v)
			}
			_, ferr = w.Write(rec)
		})
		if ferr != nil {
			return ferr
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = b.fs.Remove(path)
		return fmt.Errorf("counts: writing spill run %s: %w", path, werr)
	}
	b.runs = append(b.runs, spillRun{path: path, records: len(b.acc.cells)})
	acc, err := NewSparse(b.nx, b.ny, b.nseg)
	if err != nil {
		return err
	}
	b.acc = acc
	return nil
}

// abort removes every run file after a failed build.
func (b *spillBuilder) abort() {
	for _, r := range b.runs {
		_ = b.fs.Remove(r.path)
	}
	b.runs = nil
}

// adopt folds another builder's state into b for the sharded merge:
// the other builder's residual accumulator is flushed and its runs are
// adopted, leaving the combining to the final external merge.
// Saturating addition is associative and commutative, so run order
// cannot change the merged counts.
func (b *spillBuilder) adopt(other *spillBuilder) error {
	if err := other.flushRun(); err != nil {
		return err
	}
	b.runs = append(b.runs, other.runs...)
	other.runs = nil
	b.n += other.n
	return nil
}

// runCursor streams one run file during the merge, validating that the
// file delivers exactly the bytes its record count promises — a silent
// short read surfaces as a hard error here, never as missing counts.
type runCursor struct {
	r         vfs.ReaderAtFile
	path      string
	recSize   int
	remaining int   // records not yet loaded into buf
	off       int64 // next read offset
	buf       []byte
	pos, lim  int
	head      []byte // current record; nil when exhausted
}

func (c *runCursor) next() error {
	if c.pos >= c.lim {
		if c.remaining == 0 {
			c.head = nil
			return nil
		}
		nrec := c.remaining
		if nrec > spillReadBatch {
			nrec = spillReadBatch
		}
		need := nrec * c.recSize
		n, err := c.r.ReadAt(c.buf[:need], c.off)
		if err != nil {
			return fmt.Errorf("counts: spill run %s: read at %d: %w", c.path, c.off, err)
		}
		if n != need {
			return fmt.Errorf("counts: spill run %s truncated: read %d of %d bytes at %d",
				c.path, n, need, c.off)
		}
		c.off += int64(need)
		c.remaining -= nrec
		c.pos, c.lim = 0, need
	}
	c.head = c.buf[c.pos : c.pos+c.recSize]
	c.pos += c.recSize
	return nil
}

// finish flushes the residual accumulator, k-way merges every run
// into the final sorted segment file (combining equal cells with
// saturating addition), fsyncs it, deletes the runs and opens the
// backend. Any fault along the way fails the build with an error; no
// partially merged backend ever escapes.
func (b *spillBuilder) finish() (Backend, error) {
	back, err := b.mergeRuns()
	if err != nil {
		b.abort()
		return nil, err
	}
	return back, nil
}

func (b *spillBuilder) mergeRuns() (*SpillArray, error) {
	if err := b.flushRun(); err != nil {
		return nil, err
	}
	opener, ok := b.fs.(vfs.ReaderAtOpener)
	if !ok {
		return nil, fmt.Errorf("counts: spill filesystem %T does not support positioned reads", b.fs)
	}
	stride := b.nseg + 1
	recSize := 8 + stride*4

	cursors := make([]*runCursor, 0, len(b.runs))
	defer func() {
		for _, c := range cursors {
			_ = c.r.Close()
		}
	}()
	for _, run := range b.runs {
		r, err := opener.OpenReaderAt(run.path)
		if err != nil {
			return nil, fmt.Errorf("counts: opening spill run: %w", err)
		}
		c := &runCursor{
			r: r, path: run.path, recSize: recSize,
			remaining: run.records, off: int64(len(runMagic)) + 8,
			buf: make([]byte, spillReadBatch*recSize),
		}
		if err := c.next(); err != nil {
			cursors = append(cursors, c)
			return nil, err
		}
		cursors = append(cursors, c)
	}

	path := filepath.Join(b.dir, b.prefix+".seg")
	f, err := b.fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("counts: spill segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var idx []int64
	werr := func() error {
		if _, err := w.Write(spillMagic); err != nil {
			return err
		}
		for _, v := range []uint64{uint64(b.nx), uint64(b.ny), uint64(b.nseg), b.n} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		out := make([]byte, recSize)
		slab := make([]uint32, stride)
		rec := make([]uint32, stride)
		for {
			// Find the smallest live cell index across the run heads.
			min := int64(-1)
			for _, c := range cursors {
				if c.head == nil {
					continue
				}
				if h := int64(binary.LittleEndian.Uint64(c.head[:8])); min < 0 || h < min {
					min = h
				}
			}
			if min < 0 {
				break
			}
			for k := range slab {
				slab[k] = 0
			}
			for _, c := range cursors {
				if c.head == nil || int64(binary.LittleEndian.Uint64(c.head[:8])) != min {
					continue
				}
				decodeCell(rec, c.head[8:])
				accumulate(slab, rec)
				if err := c.next(); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint64(out[:8], uint64(min))
			for k, v := range slab {
				binary.LittleEndian.PutUint32(out[8+k*4:], v)
			}
			if _, err := w.Write(out); err != nil {
				return err
			}
			idx = append(idx, min)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = b.fs.Remove(path)
		return nil, fmt.Errorf("counts: writing spill segment %s: %w", path, werr)
	}
	for _, run := range b.runs {
		_ = b.fs.Remove(run.path)
	}
	b.runs = nil

	r, err := opener.OpenReaderAt(path)
	if err != nil {
		_ = b.fs.Remove(path)
		return nil, fmt.Errorf("counts: opening spill segment: %w", err)
	}
	s := &SpillArray{shape: b.shape, idx: idx, fs: b.fs, path: path, r: r, dir: b.dir}
	runtime.SetFinalizer(s, func(sp *SpillArray) { _ = sp.Close() })
	return s, nil
}
