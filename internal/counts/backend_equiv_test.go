package counts

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"arcs/internal/binning"
)

// snapBytes serializes any backend through Snapshot — the strictest
// equality the backend family promises.
func snapBytes(t testing.TB, b Backend) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Snapshot(b, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gridOp is one AddN applied identically to every backend under test.
type gridOp struct {
	x, y, seg int
	n         uint32
}

// randOps generates a deterministic op stream from a small LCG. With
// saturate set, some ops land counts near MaxUint32 so the saturating
// accumulation path is exercised on every backend.
func randOps(seed uint64, nx, ny, nseg, nops int, saturate bool) []gridOp {
	state := seed*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	ops := make([]gridOp, nops)
	for i := range ops {
		n := uint32(1 + next(7))
		if saturate && next(4) == 0 {
			n = math.MaxUint32 - uint32(next(3))
		}
		ops[i] = gridOp{x: next(nx), y: next(ny), seg: next(nseg), n: n}
	}
	return ops
}

// builtBackends applies ops to a fresh dense and sparse backend and
// returns them keyed by kind name.
func builtBackends(t testing.TB, nx, ny, nseg int, ops []gridOp) map[string]Backend {
	t.Helper()
	d, err := NewDense(nx, ny, nseg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSparse(nx, ny, nseg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		d.AddN(op.x, op.y, op.seg, op.n)
		sp.AddN(op.x, op.y, op.seg, op.n)
	}
	return map[string]Backend{"dense": d, "sparse": sp}
}

// buildAllBackends is builtBackends reduced to each backend's snapshot.
func buildAllBackends(t testing.TB, nx, ny, nseg int, ops []gridOp) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, 2)
	for kind, b := range builtBackends(t, nx, ny, nseg, ops) {
		out[kind] = snapBytes(t, b)
	}
	return out
}

// TestBackendsByteIdenticalRandomGrids is the cross-backend property
// check: random grids — including saturating bulk adds — snapshot to
// the same bytes whether counted densely or sparsely.
func TestBackendsByteIdenticalRandomGrids(t *testing.T) {
	cases := []struct {
		name         string
		nx, ny, nseg int
		nops         int
		seed         uint64
		saturate     bool
	}{
		{name: "small-mostly-full", nx: 8, ny: 6, nseg: 3, nops: 2000, seed: 1},
		// 4000 cells with ~3000 occupied: many sparse slab growths and a
		// long sorted-key walk.
		{name: "wide-multi-run", nx: 80, ny: 50, nseg: 4, nops: 5000, seed: 2},
		{name: "tall-sparse", nx: 200, ny: 3, nseg: 2, nops: 37, seed: 3},
		{name: "saturating", nx: 5, ny: 5, nseg: 3, nops: 400, seed: 4, saturate: true},
		{name: "empty", nx: 10, ny: 10, nseg: 2, nops: 0, seed: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops := randOps(tc.seed, tc.nx, tc.ny, tc.nseg, tc.nops, tc.saturate)
			got := buildAllBackends(t, tc.nx, tc.ny, tc.nseg, ops)
			if !bytes.Equal(got["sparse"], got["dense"]) {
				t.Errorf("sparse snapshot differs from dense (%d vs %d bytes)",
					len(got["sparse"]), len(got["dense"]))
			}
		})
	}
}

// FuzzBackendEquivalence drives both backends with op streams
// decoded from fuzz input and requires byte-identical snapshots. Each
// 4-byte chunk is one op; an odd flag byte makes the op a near-MaxUint32
// bulk add so the fuzzer reaches the saturation plateau.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 0, 4, 5, 6, 1, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 9, 9, 9, 9})
	f.Add(bytes.Repeat([]byte{0xab}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nx, ny, nseg = 7, 5, 3
		if len(data) > 4*256 {
			data = data[:4*256]
		}
		var ops []gridOp
		for ; len(data) >= 4; data = data[4:] {
			n := uint32(data[3]) + 1
			if data[3]&1 == 1 {
				n = math.MaxUint32 - uint32(data[3]>>1)
			}
			ops = append(ops, gridOp{
				x: int(data[0]) % nx, y: int(data[1]) % ny,
				seg: int(data[2]) % nseg, n: n,
			})
		}
		got := buildAllBackends(t, nx, ny, nseg, ops)
		if !bytes.Equal(got["sparse"], got["dense"]) {
			t.Errorf("sparse snapshot differs from dense for %d ops", len(ops))
		}
	})
}

// TestShardedBackendsByteIdenticalToDense pins the sparse backend
// through the sharded build at several worker counts and requires the
// merged result to snapshot identically to the sequential dense build.
func TestShardedBackendsByteIdenticalToDense(t *testing.T) {
	tab := testTable(t, 10_007) // prime, so shards are uneven
	spec := testSpec(t)
	ref, err := Build(context.Background(), tab, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, ref)
	for _, kind := range []Kind{Sparse} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s-w%d", kind, workers), func(t *testing.T) {
				sh, used, err := BuildSharded(context.Background(), tab, workers, spec, Options{Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				if used != workers {
					t.Errorf("used %d workers, want %d", used, workers)
				}
				if got := KindOf(sh); got != kind {
					t.Errorf("KindOf = %v, want %v", got, kind)
				}
				if got := snapBytes(t, sh); !bytes.Equal(got, want) {
					t.Errorf("sharded %s build differs from sequential dense build", kind)
				}
			})
		}
	}
}

// TestBudgetRefusedByDenseSelectsAlternate is the acceptance claim of
// the Auto policy: a grid the dense array refuses under a budget still
// builds on sparse — whatever its occupancy, since the budget never
// refuses sparse — and produces byte-identical counts.
func TestBudgetRefusedByDenseSelectsAlternate(t *testing.T) {
	// A 200×200 grid with 3 segments needs 640,000 bytes densely;
	// refuse it with a 64 KiB budget.
	const nbins, budget = 200, 64 << 10
	xb, err := binning.NewEquiWidth(0, 100, nbins)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := binning.NewEquiWidth(0, 100, nbins)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{XIdx: 0, YIdx: 1, CritIdx: 2, XBinner: xb, YBinner: yb, NSeg: 3}
	if _, err := newDense(nbins, nbins, 3, budget); err == nil {
		t.Fatal("dense array unexpectedly fits the budget")
	}

	cases := []struct {
		name string
		rows int
		want Kind
	}{
		// 500 occupied cells of sparse state fit 64 KiB.
		{name: "low-occupancy-selects-sparse", rows: 500, want: Sparse},
		// ~10k occupied cells of sparse state do not, and sparse still
		// builds them.
		{name: "high-occupancy-selects-sparse", rows: 10_007, want: Sparse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := testTable(t, tc.rows)
			ref, err := Build(context.Background(), tab, spec, Options{Kind: Dense, MemBudget: -1})
			if err != nil {
				t.Fatal(err)
			}
			want := snapBytes(t, ref)
			b, err := Build(context.Background(), tab, spec, Options{MemBudget: budget})
			if err != nil {
				t.Fatalf("budgeted build failed where dense refused: %v", err)
			}
			if got := KindOf(b); got != tc.want {
				t.Errorf("auto-selected %v, want %v", got, tc.want)
			}
			if got := snapBytes(t, b); !bytes.Equal(got, want) {
				t.Errorf("budgeted %v build differs from unlimited dense build", tc.want)
			}
		})
	}
}
