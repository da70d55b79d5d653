package synth

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"arcs/internal/dataset"
)

func streamConfig(n int) Config {
	return Config{Function: 2, N: n, Seed: 7, Perturbation: 0.05, OutlierFraction: 0.1, FracA: 0.4}
}

// TestStreamPositionDeterminism checks the core contract: tuple i is a
// pure function of (seed, i), independent of visit order.
func TestStreamPositionDeterminism(t *testing.T) {
	s, err := NewStream(streamConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]dataset.Tuple, 500)
	buf := make(dataset.Tuple, numCols)
	for i := range forward {
		s.At(i, buf)
		forward[i] = buf.Clone()
	}
	// Revisit in reverse with a different buffer.
	buf2 := make(dataset.Tuple, numCols)
	for i := len(forward) - 1; i >= 0; i-- {
		s.At(i, buf2)
		for c := range buf2 {
			if buf2[c] != forward[i][c] {
				t.Fatalf("tuple %d col %d: reverse visit %g != forward %g", i, c, buf2[c], forward[i][c])
			}
		}
	}
}

// TestStreamShardsPartition checks that consuming the FuncSource shards
// concurrently reproduces the sequential stream exactly.
func TestStreamShardsPartition(t *testing.T) {
	s, err := NewStream(streamConfig(1_000))
	if err != nil {
		t.Fatal(err)
	}
	src := s.Source()
	var seq []dataset.Tuple
	if err := dataset.ForEach(src, func(tp dataset.Tuple) error {
		seq = append(seq, tp.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1_000 {
		t.Fatalf("sequential pass yielded %d tuples, want 1000", len(seq))
	}
	const shards = 4
	type part struct {
		idx    int
		tuples []dataset.Tuple
	}
	out := make(chan part, shards)
	for i := 0; i < shards; i++ {
		sh, err := s.Source().Shard(i, shards)
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, sh dataset.Source) {
			var got []dataset.Tuple
			for {
				tp, err := sh.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					out <- part{i, nil}
					return
				}
				got = append(got, tp.Clone())
			}
			out <- part{i, got}
		}(i, sh)
	}
	parts := make([][]dataset.Tuple, shards)
	for i := 0; i < shards; i++ {
		p := <-out
		if p.tuples == nil {
			t.Fatal("shard failed")
		}
		parts[p.idx] = p.tuples
	}
	var merged []dataset.Tuple
	for _, p := range parts {
		merged = append(merged, p...)
	}
	if len(merged) != len(seq) {
		t.Fatalf("shards yielded %d tuples, want %d", len(merged), len(seq))
	}
	for i := range seq {
		for c := range seq[i] {
			if merged[i][c] != seq[i][c] {
				t.Fatalf("tuple %d col %d: sharded %g != sequential %g", i, c, merged[i][c], seq[i][c])
			}
		}
	}
}

// TestStreamGroupFractionControl checks that At, under its real bound on
// rejection draws, hits the Group A target even for Function 10, whose
// natural Group A share is 99.8% and which needs the longest rejection
// runs of any function. TestFractionControl covers Function 2 through
// the source.
func TestStreamGroupFractionControl(t *testing.T) {
	const n = 20_000
	s, err := NewStream(Config{Function: 10, N: n, Seed: 3, FracA: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make(dataset.Tuple, numCols)
	a := 0
	for i := 0; i < n; i++ {
		s.At(i, buf)
		if buf[ColGroup] == 0 {
			a++
		}
	}
	if frac := float64(a) / n; frac < 0.38 || frac > 0.42 {
		t.Errorf("Group A fraction = %.3f, want ~0.40", frac)
	}
}

// TestStreamValuesPinned pins the stream's values: an FNV-1a 64 hash
// of every column of every tuple, in index order, as little-endian
// float64 bits. The benchmark's inputs and every fixture built from the
// generator depend on these exact draws, so a change to the draw order
// fails here first.
func TestStreamValuesPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want uint64
	}{
		// The benchmark's input configuration.
		{Config{Function: 2, N: 10_000, Seed: 1, Perturbation: 0.05, OutlierFraction: 0.10, FracA: 0.4}, 0x158b3ac486cc08ef},
		// Long rejection runs: Function 10's natural Group A share is 99.8%.
		{Config{Function: 10, N: 2_000, Seed: 1997, Perturbation: 0.05, OutlierFraction: 0.10, FracA: 0.4}, 0x47d794e60fa33575},
	} {
		s, err := NewStream(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		buf := make(dataset.Tuple, numCols)
		var b [8]byte
		for i := 0; i < c.cfg.N; i++ {
			s.At(i, buf)
			for _, v := range buf {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("function %d: stream hash %#x, want %#x", c.cfg.Function, got, c.want)
		}
	}
}

// TestRejectionLoopBounded: a tuple that reaches the bound on rejection
// draws keeps its last draw with the function's own label. With a bound
// of one draw, Function 10 tuples are labeled as drawn, so Group A lands
// near the function's natural 99.8% instead of the 40% target.
func TestRejectionLoopBounded(t *testing.T) {
	const n = 2_000
	s, err := NewStream(Config{Function: 10, N: n, Seed: 1997, FracA: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make(dataset.Tuple, numCols)
	a := 0
	for i := 0; i < n; i++ {
		s.at(i, buf, 1)
		isA := buf[ColGroup] == 0
		if isA != IsGroupA(10, buf) {
			t.Fatalf("tuple %d: label A=%v disagrees with the function", i, isA)
		}
		if isA {
			a++
		}
	}
	if frac := float64(a) / n; frac < 0.95 {
		t.Errorf("Group A fraction with one draw = %.3f, want the natural ~0.998", frac)
	}
}

// TestStreamAtZeroAlloc guards the generator hot path: synthesizing a
// tuple into a caller buffer must not allocate, or 100M-tuple streamed
// benches would spend their time in GC.
func TestStreamAtZeroAlloc(t *testing.T) {
	s, err := NewStream(streamConfig(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	buf := make(dataset.Tuple, numCols)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		s.At(i, buf)
		i++
	})
	if allocs != 0 {
		t.Errorf("Stream.At allocated %.1f times per tuple, want 0", allocs)
	}
}
