package binning

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestLookupsPinned pins every strategy's lookups: the bin of a sweep
// across the fitted domain and beyond both edges, every bin's Bounds,
// and the bin of each bound and of the values one ulp either side of
// it — the cases where a one-ulp arithmetic change would silently move
// a value to a neighbouring bin. The hashes were computed on the
// per-strategy binner types this single Binner replaced, so they also
// prove the bin numbers and bounds did not change with it.
func TestLookupsPinned(t *testing.T) {
	vals := []float64{1, 3, 3, 4, 7, 9, 12, 12, 12, 15, 21, 30, 30, 42}
	// Class 1 inside [15, 40): supervised finds both edges.
	var sv []float64
	var sc []int
	for i := 0; i < 240; i++ {
		v := float64(i) * 0.25
		c := 0
		if v >= 15 && v < 40 {
			c = 1
		}
		sv = append(sv, v)
		sc = append(sc, c)
	}
	must := func(b *Binner, err error) *Binner {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name   string
		b      *Binner
		method string
		bins   int
		hash   uint64
	}{
		{"equi-width", must(NewEquiWidth(-5, 50, 7)), "equi-width", 7, 0xb318b46cc10adab4},
		{"equi-depth", must(NewEquiDepth(vals, 4)), "equi-depth", 4, 0xd8f627a2097b07c2},
		{"homogeneity", must(NewHomogeneity(vals, 4)), "homogeneity", 4, 0x4e338e47899044cd},
		{"supervised", must(NewSupervised(sv, sc, 8)), "supervised", 3, 0xc4dec79eb2a3f082},
		{"categorical", must(NewCategorical(6)), "categorical", 6, 0x1c4fabd2da0097fc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.b
			if b.Method() != tc.method {
				t.Errorf("Method() = %q, want %q", b.Method(), tc.method)
			}
			if b.NumBins() != tc.bins {
				t.Fatalf("NumBins() = %d, want %d", b.NumBins(), tc.bins)
			}
			h := fnv.New64a()
			var buf [8]byte
			put := func(u uint64) {
				binary.LittleEndian.PutUint64(buf[:], u)
				h.Write(buf[:])
			}
			probe := func(v float64) {
				bin := b.Bin(v)
				if bin < 0 || bin >= b.NumBins() {
					t.Errorf("Bin(%g) = %d outside 0..%d", v, bin, b.NumBins()-1)
				}
				put(uint64(int64(bin)))
			}
			put(uint64(b.NumBins()))
			for v := -10.0; v <= 60.0; v += 0.37 {
				probe(v)
			}
			for i := 0; i < b.NumBins(); i++ {
				lo, hi := b.Bounds(i)
				put(math.Float64bits(lo))
				put(math.Float64bits(hi))
				for _, e := range []float64{lo, hi} {
					probe(e)
					probe(math.Nextafter(e, math.Inf(-1)))
					probe(math.Nextafter(e, math.Inf(1)))
				}
			}
			if got := h.Sum64(); got != tc.hash {
				t.Errorf("lookup hash = %#016x, want %#016x", got, tc.hash)
			}
		})
	}
}

func TestWidenDegenerate(t *testing.T) {
	if lo, hi := WidenDegenerate(5, 5); lo != 5 || hi != 6 {
		t.Errorf("WidenDegenerate(5, 5) = (%g, %g), want (5, 6)", lo, hi)
	}
	if lo, hi := WidenDegenerate(1, 2); lo != 1 || hi != 2 {
		t.Errorf("WidenDegenerate(1, 2) = (%g, %g), want unchanged", lo, hi)
	}
}
