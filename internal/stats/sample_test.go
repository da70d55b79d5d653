package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleKofNBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := SampleKofN(rng, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[int]bool{}
	for _, i := range s {
		if i < 0 || i >= 10 {
			t.Errorf("index %d out of range", i)
		}
		if seen[i] {
			t.Errorf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestSampleKofNEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if s, err := SampleKofN(rng, 0, 10); err != nil || len(s) != 0 {
		t.Errorf("k=0: %v, %v", s, err)
	}
	s, err := SampleKofN(rng, 10, 10)
	if err != nil || len(s) != 10 {
		t.Fatalf("k=n: %v, %v", s, err)
	}
	seen := map[int]bool{}
	for _, i := range s {
		seen[i] = true
	}
	if len(seen) != 10 {
		t.Error("k=n sample must be a permutation")
	}
	if _, err := SampleKofN(rng, 11, 10); err == nil {
		t.Error("k>n should error")
	}
	if _, err := SampleKofN(rng, -1, 10); err == nil {
		t.Error("negative k should error")
	}
}

func TestSampleKofNPropertyDistinctInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		k := int(kRaw) % (n + 1)
		s, err := SampleKofN(rng, k, n)
		if err != nil {
			return false
		}
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, i := range s {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleKofNUniformity(t *testing.T) {
	// Each of n=100 items should appear in a k=10 sample with
	// probability 0.1. Over 5000 trials each item's count should be near
	// 500.
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 100)
	const trials = 5000
	for trial := 0; trial < trials; trial++ {
		s, err := SampleKofN(rng, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range s {
			counts[i]++
		}
	}
	for i, c := range counts {
		if c < 350 || c > 650 {
			t.Errorf("item %d drawn %d times; expected ~500", i, c)
		}
	}
}

func TestReservoir(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := NewReservoir(rng, 10)
	kept := map[int]int{} // slot -> stream pos
	for pos := 0; pos < 1000; pos++ {
		if slot, keep := r.Offer(); keep {
			kept[slot] = pos
		}
	}
	if r.Size() != 10 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Seen() != 1000 {
		t.Fatalf("Seen = %d", r.Seen())
	}
	if len(kept) != 10 {
		t.Fatalf("kept %d slots", len(kept))
	}
}

func TestReservoirSmallStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewReservoir(rng, 10)
	for pos := 0; pos < 4; pos++ {
		slot, keep := r.Offer()
		if !keep || slot != pos {
			t.Errorf("pos %d: slot=%d keep=%v; first cap elements must all be kept in order", pos, slot, keep)
		}
	}
	if r.Size() != 4 {
		t.Errorf("Size = %d, want 4", r.Size())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of 100 stream positions should survive in a cap-10 reservoir
	// with probability 0.1.
	rng := rand.New(rand.NewSource(8))
	counts := make([]int, 100)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(rng, 10)
		held := make([]int, 10)
		for pos := 0; pos < 100; pos++ {
			if slot, keep := r.Offer(); keep {
				held[slot] = pos
			}
		}
		for _, pos := range held {
			counts[pos]++
		}
	}
	for i, c := range counts {
		if c < 280 || c > 520 {
			t.Errorf("pos %d survived %d times; expected ~400", i, c)
		}
	}
}

func TestReservoirNegativeCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewReservoir(rng, -5)
	if _, keep := r.Offer(); keep {
		t.Error("zero-capacity reservoir must not keep anything")
	}
}
