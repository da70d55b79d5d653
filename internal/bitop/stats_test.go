package bitop

import (
	"reflect"
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
	want := []grid.Rect{{R0: 1, C0: 2, R1: 4, C1: 5}, {R0: 6, C0: 7, R1: 6, C1: 7}}
	if !reflect.DeepEqual(clusters, want) {
		t.Fatalf("clusters = %v, want %v", clusters, want)
	}
	// Round 1 sweeps all 8 rows. Its pick, rows 1-4 by columns 2-5, was
	// read by the sweeps of anchors 1-4 only: anchor 0's row is empty,
	// so its sweep read row 0 alone, and anchors 5-7 lie below the pick.
	// So round 2 re-sweeps anchors 1-4, whose rows are now empty, and
	// picks the cached cell (6, 7): 12 sweeps over 2 rounds.
	if st.Rounds() != 2 || st.Sweeps() != 12 {
		t.Fatalf("rounds=%d sweeps=%d, want 2 and 8+4", st.Rounds(), st.Sweeps())
	}
	// One word a row. Round 1: an emptiness scan per anchor (8), and the
	// rows below each live anchor until its mask empties: anchors 1-4
	// read down to row 5 (4+3+2+1) and anchor 6 reads row 7 (1), each
	// offering the one run that row cuts (5 candidates). Round 2: four
	// emptiness scans.
	if st.AndWordOps() != 11 || st.CmpWordOps() != 8+11+4 || st.Candidates() != 5 {
		t.Fatalf("andOps=%d cmpOps=%d candidates=%d, want 11, 23 and 5",
			st.AndWordOps(), st.CmpWordOps(), st.Candidates())
	}

	// Stats must not change the clustering.
	if plain := Cluster(bm, Options{MinArea: 1}); !reflect.DeepEqual(plain, clusters) {
		t.Fatalf("stats changed result: %v vs %v", clusters, plain)
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
