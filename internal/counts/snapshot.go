package counts

import (
	"bufio"
	"encoding/binary"
	"io"
)

// snapMagic opens the ARCSBA1 wire format: the magic, then nx, ny, nseg
// and n as little-endian uint64, then the full row-major count array —
// the dense array's memory layout.
var snapMagic = []byte("ARCSBA1\n")

// Snapshot serializes any backend in the ARCSBA1 wire format, with
// empty cells as zeros. Equal counts give equal bytes whatever backend
// built them, which is what makes cross-backend equivalence cheap to
// prove: the tests compare snapshots, not cells. The dense array writes
// its memory as is; the sparse backend streams its occupied cells into
// the gaps, so even a high-resolution grid snapshots without
// materializing densely in memory.
func Snapshot(b Backend, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(snapMagic); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(b.NX()), uint64(b.NY()), uint64(b.NSeg()), b.N()} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if d, ok := b.(*DenseArray); ok {
		if err := binary.Write(bw, binary.LittleEndian, d.counts); err != nil {
			return err
		}
		return bw.Flush()
	}
	stride := b.NSeg() + 1
	zeros := make([]byte, stride*4)
	cellBuf := make([]byte, stride*4)
	var werr error
	writeZeroCells := func(n int64) {
		for ; n > 0 && werr == nil; n-- {
			_, werr = bw.Write(zeros)
		}
	}
	next := int64(0) // row-major index of the next cell to emit
	b.Cells(func(x, y int, cell []uint32) {
		if werr != nil {
			return
		}
		idx := int64(x)*int64(b.NY()) + int64(y)
		writeZeroCells(idx - next)
		if werr != nil {
			return
		}
		for k, v := range cell {
			binary.LittleEndian.PutUint32(cellBuf[k*4:], v)
		}
		_, werr = bw.Write(cellBuf)
		next = idx + 1
	})
	if werr != nil {
		return werr
	}
	writeZeroCells(int64(b.NX())*int64(b.NY()) - next)
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
