package core

import (
	"fmt"
	"math/rand"

	"arcs/internal/counts"
	"arcs/internal/dataset"
)

// Extend folds additional tuples into an existing system: the new data
// is binned through the already-fitted binners into the same BinArray,
// and the verification sample is refreshed by continuing the reservoir
// over the combined stream. Because the BinArray is additive, no prior
// data is re-read — the incremental counterpart of the paper's
// single-pass design, for segmentations that must track a growing table.
//
// The source's schema must be structurally compatible with the system's:
// same attribute names and kinds in the same order. Category codes of
// the criterion attribute (and of a categorical LHS attribute) are
// remapped by label; labels the original dictionary does not know are
// rejected, because the BinArray's axes are fixed at construction.
//
// The binners are NOT refitted: values outside the originally observed
// domain clamp into the edge bins. If the data distribution drifts far
// from the fit, build a fresh System instead. Cached per-criterion
// indexes are invalidated; the next probe, Grid or Run rebuilds them
// over the combined counts.
//
// Extend reads the source twice. The first pass checks every tuple (its
// width, finite LHS values, known category labels and criterion codes)
// and changes nothing, so a rejected tuple leaves the System as it was.
// The second pass adds the tuples. A read error during the second pass,
// or a source that replays different tuples, can still leave the System
// partly extended.
//
// Extend must not be called concurrently with RunValue/SegmentAll.
func (s *System) Extend(src dataset.Source) error {
	remaps, err := s.compatibleRemaps(src.Schema())
	if err != nil {
		return err
	}
	adder, ok := s.ba.(counts.Adder)
	if !ok {
		return fmt.Errorf("core: count backend %T does not support incremental extension", s.ba)
	}
	nseg := s.ba.NSeg()
	buf := make(dataset.Tuple, s.schema.Len())
	row := 0
	// admit checks the pass's next tuple and writes it into buf with the
	// system's category codes.
	admit := func(t dataset.Tuple) error {
		if len(t) != s.schema.Len() {
			return dataset.ErrSchemaMismatch
		}
		if !finite(t[s.xIdx]) || !finite(t[s.yIdx]) {
			return s.nonFiniteLHS(t, row)
		}
		row++
		copy(buf, t)
		for idx, remap := range remaps {
			code := int(t[idx])
			if code < 0 || code >= len(remap) {
				return fmt.Errorf("core: attribute %q category code %d out of range in extension data",
					s.schema.At(idx).Name, code)
			}
			mapped := remap[code]
			if mapped < 0 {
				return fmt.Errorf("core: attribute %q value %q is not in the original dictionary; rebuild the system to admit it",
					s.schema.At(idx).Name, src.Schema().At(idx).Category(code))
			}
			buf[idx] = float64(mapped)
		}
		if seg := int(buf[s.critIdx]); seg < 0 || seg >= nseg {
			return fmt.Errorf("core: criterion value %d outside the original dictionary (0..%d)", seg, nseg-1)
		}
		return nil
	}
	if err := dataset.ForEach(src, admit); err != nil {
		return err
	}

	// Continue reservoir sampling over the logical concatenation of the
	// original stream and the extension, so the sample stays uniform
	// over everything seen. The original stream length seeds the "seen"
	// counter.
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(s.ba.N())))
	seen := int(s.ba.N())
	row = 0
	err = dataset.ForEach(src, func(t dataset.Tuple) error {
		if err := admit(t); err != nil {
			return err
		}
		adder.Add(s.xb.Bin(buf[s.xIdx]), s.yb.Bin(buf[s.yIdx]), int(buf[s.critIdx]))

		// Algorithm-R continuation over the combined stream.
		seen++
		if s.sample.Len() < sampleSize {
			return s.sample.Append(buf)
		}
		if j := rng.Intn(seen); j < s.sample.Len() {
			copy(s.sample.Row(j), buf)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.resetThresholdCache()
	// The sample rows and BinArray counts changed: memoized probes are
	// stale and the verification index must be rebuilt over the updated
	// sample.
	s.ResetProbeCache()
	return s.buildVerifyIndex()
}

// compatibleRemaps validates structural schema compatibility and builds
// category-code remaps (source code -> system code, -1 for unknown) for
// the attributes whose codes the pipeline interprets: the criterion and
// any categorical LHS attribute. Identical schema instances need no
// remapping.
func (s *System) compatibleRemaps(other *dataset.Schema) (map[int][]int, error) {
	if other == s.schema {
		return nil, nil
	}
	if other.Len() != s.schema.Len() {
		return nil, fmt.Errorf("core: extension schema has %d attributes, system has %d",
			other.Len(), s.schema.Len())
	}
	for i := 0; i < s.schema.Len(); i++ {
		a, b := s.schema.At(i), other.At(i)
		if a.Name != b.Name || a.Kind != b.Kind {
			return nil, fmt.Errorf("core: extension attribute %d is %s/%v, system expects %s/%v",
				i, b.Name, b.Kind, a.Name, a.Kind)
		}
	}
	remaps := make(map[int][]int)
	needs := []int{s.critIdx}
	if s.xCat {
		needs = append(needs, s.xIdx)
	}
	if s.yCat {
		needs = append(needs, s.yIdx)
	}
	for _, idx := range needs {
		mine, theirs := s.schema.At(idx), other.At(idx)
		remap := make([]int, theirs.NumCategories())
		for code := range remap {
			if myCode, ok := mine.LookupCategory(theirs.Category(code)); ok {
				remap[code] = myCode
			} else {
				remap[code] = -1
			}
		}
		remaps[idx] = remap
	}
	return remaps, nil
}
