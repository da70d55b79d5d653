package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel measures how fast the machine runs right now. On a
// virtual machine shared with other tenants the speed of the memory
// system changes in phases of seconds to minutes, and every workload
// slows with it. The benchmark times the kernel just before each op, each
// set-up repetition and each apply-serve slice, and reports that op's
// time scaled to a machine on which one pass takes refNominal: measured ×
// refNominal ÷ the median pass of the calibration before it. The kernel
// is the benchmark's own code, so a change to the program moves a scaled
// figure by the same share as the measured one.
//
// A pass makes refLoads independent loads at pseudo-random positions in
// refBytes of untouched anonymous memory. Every page of it maps the
// kernel's shared zero page, so the loads stress address translation and
// the caches that hold page tables, which tracked the workloads' slow
// phases more closely than plain arithmetic or loads from DRAM did.
const (
	refBytes   = 64 << 20
	refLoads   = 2_000_000
	refPasses  = 5 // timed passes per calibration
	refNominal = 0.010
)

// refSink keeps the kernel's loads from being optimised away.
var refSink uint64

// calibrate runs the reference kernel, records its passes in b.refs and
// returns the median pass in seconds. The memory is mapped outside the Go
// heap and unmapped afterwards, so it neither triggers garbage collection
// nor shows in the peak RSS of the next op. An untimed first pass maps
// the pages.
func (b *bench) calibrate() float64 {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		b.refErr = fmt.Errorf("mapping the reference kernel's memory: %w", err)
		return refNominal
	}
	defer syscall.Munmap(mem)
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refBytes/8)
	refSink += refPass(words)
	passes := make([]float64, refPasses)
	for p := range passes {
		start := time.Now()
		refSink += refPass(words)
		passes[p] = time.Since(start).Seconds()
	}
	b.refs = append(b.refs, passes...)
	return median(passes)
}

// refPass makes refLoads independent loads at pseudo-random positions.
func refPass(words []uint64) uint64 {
	var sum uint64
	x := uint64(1)
	n := uint64(len(words))
	for i := 0; i < refLoads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += words[(x>>24)%n]
	}
	return sum
}

// scaled returns each measured time in xs scaled to the reference
// machine by the median pass refs[i] timed just before it.
func scaled(xs, refs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * refNominal / refs[i]
	}
	return out
}
