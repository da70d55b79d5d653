package stats

import (
	"fmt"
	"math/rand"
)

// SampleKofN draws k distinct indices uniformly from [0, n) using the
// supplied RNG. It is the primitive behind the verifier's "repeated k out
// of n sampling" (paper §3.6): a partial Fisher-Yates shuffle over an
// index array of n, stopped after k swaps. The verifier draws half of a
// sample of at most 2,000 tuples, so the O(n) index array is small.
func SampleKofN(rng *rand.Rand, k, n int) ([]int, error) {
	if k < 0 || n < 0 {
		return nil, fmt.Errorf("stats: invalid sample k=%d n=%d", k, n)
	}
	if k > n {
		return nil, fmt.Errorf("stats: cannot sample %d of %d without replacement", k, n)
	}
	if k == 0 {
		return nil, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k:k], nil
}

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of unknown length (Vitter's algorithm R). The verifier uses it
// to sample tuples from streaming sources without materializing them.
type Reservoir struct {
	rng  *rand.Rand
	cap  int
	seen int
	keep []int // indices of kept stream positions, parallel to items
}

// NewReservoir creates a reservoir of the given capacity.
func NewReservoir(rng *rand.Rand, capacity int) *Reservoir {
	if capacity < 0 {
		capacity = 0
	}
	return &Reservoir{rng: rng, cap: capacity}
}

// Offer presents the next stream element (by position) to the reservoir.
// It returns (slot, true) when the element should be stored at slot in
// the caller's parallel buffer, or (0, false) when it is discarded.
func (r *Reservoir) Offer() (slot int, keep bool) {
	pos := r.seen
	r.seen++
	if pos < r.cap {
		r.keep = append(r.keep, pos)
		return pos, true
	}
	j := r.rng.Intn(pos + 1)
	if j < r.cap {
		r.keep[j] = pos
		return j, true
	}
	return 0, false
}

// Size reports how many elements are currently held.
func (r *Reservoir) Size() int { return len(r.keep) }

// Seen reports how many elements have been offered in total.
func (r *Reservoir) Seen() int { return r.seen }
