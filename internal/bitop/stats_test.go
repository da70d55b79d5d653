package bitop

import (
	"testing"

	"arcs/internal/grid"
)

func statsBitmap(t *testing.T) *grid.Bitmap {
	t.Helper()
	bm, err := grid.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		for c := 2; c <= 5; c++ {
			bm.Set(r, c)
		}
	}
	bm.Set(6, 7)
	return bm
}

func TestBitopStatsAccounting(t *testing.T) {
	bm := statsBitmap(t)
	st := &Stats{}
	clusters := Cluster(bm, Options{MinArea: 1, Stats: st})
	if len(clusters) == 0 {
		t.Fatal("no clusters found")
	}
	if st.Rounds() == 0 || st.Sweeps() == 0 {
		t.Fatalf("rounds=%d sweeps=%d, want both > 0", st.Rounds(), st.Sweeps())
	}
	if st.AndWordOps() == 0 || st.CmpWordOps() == 0 {
		t.Fatalf("andOps=%d cmpOps=%d, want both > 0", st.AndWordOps(), st.CmpWordOps())
	}
	if st.Candidates() == 0 {
		t.Fatal("no candidates counted")
	}
	// Every greedy round sweeps each of the bitmap's rows once.
	if want := st.Rounds() * int64(bm.Rows()); st.Sweeps() != want {
		t.Fatalf("sweeps=%d, want rounds*rows=%d", st.Sweeps(), want)
	}

	// Stats must not change the clustering.
	plain := Cluster(bm, Options{MinArea: 1})
	if len(plain) != len(clusters) {
		t.Fatalf("stats changed result: %d vs %d clusters", len(clusters), len(plain))
	}
}

// TestBitopStatsDisabledZeroAlloc pins the nil-observer contract on the
// BitOp hot path: the per-sweep accounting calls are free when no Stats
// is attached — no allocation, no atomic traffic.
func TestBitopStatsDisabledZeroAlloc(t *testing.T) {
	var st *Stats
	allocs := testing.AllocsPerRun(1000, func() {
		st.addSweep(64, 64, 2)
		st.addRound()
	})
	if allocs != 0 {
		t.Fatalf("nil Stats accounting allocates %.1f per op, want 0", allocs)
	}
	if st.AndWordOps() != 0 || st.Rounds() != 0 {
		t.Fatal("nil Stats reported non-zero values")
	}
}

func BenchmarkClusterStatsOverhead(b *testing.B) {
	bm, err := grid.New(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	for r := 8; r < 40; r++ {
		for c := 8; c < 40; c++ {
			bm.Set(r, c)
		}
	}
	b.Run("nostats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Cluster(bm, Options{MinArea: 4})
		}
	})
	b.Run("stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Cluster(bm, Options{MinArea: 4, Stats: &Stats{}})
		}
	})
}
