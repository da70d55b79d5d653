package bitop

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"arcs/internal/grid"
)

// randomBitmap sets each cell of a rows×cols bitmap with probability
// density.
func randomBitmap(rng *rand.Rand, rows, cols int, density float64) *grid.Bitmap {
	bm, _ := grid.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				bm.Set(r, c)
			}
		}
	}
	return bm
}

// mk builds a bitmap from ASCII rows (row 0 first), '#' = set.
func mk(t *testing.T, rows ...string) *grid.Bitmap {
	t.Helper()
	bm, err := grid.New(len(rows), len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for r, line := range rows {
		for c, ch := range line {
			if ch == '#' {
				bm.Set(r, c)
			}
		}
	}
	return bm
}

// sweep runs the packed enumeration over bm and holds it to the naive
// enumeration's candidate list: it must offer exactly the naive
// candidates that no candidate with the same anchor row and columns and
// more rows dominates, count them in its Stats, and pick what pickBest
// picks from the full list. It returns that list.
func sweep(t *testing.T, bm *grid.Bitmap) []grid.Rect {
	t.Helper()
	e, st := newEnumerator(bm), &Stats{}
	best, ok := e.run(bm, st)
	cands := enumerateNaive(toBools(bm), bm.Rows(), bm.Cols())
	if want := undominated(cands); e.n != want || st.Candidates() != e.n {
		t.Fatalf("packed sweep offered %d candidates (Stats %d), want the %d undominated of the naive %v",
			e.n, st.Candidates(), want, cands)
	}
	if ok != (len(cands) > 0) {
		t.Fatalf("packed sweep has a candidate: %v, naive enumeration found %d", ok, len(cands))
	}
	if len(cands) > 0 && best != pickBest(cands) {
		t.Fatalf("packed sweep kept %v, pickBest over the candidates %v", best, pickBest(cands))
	}
	return cands
}

// undominated counts the candidates that no candidate with the same
// anchor row and columns and more rows dominates.
func undominated(cands []grid.Rect) int64 {
	tallest := map[[3]int]int{}
	for _, c := range cands {
		k := [3]int{c.R0, c.C0, c.C1}
		tallest[k] = max(tallest[k], c.R1)
	}
	n := int64(0)
	for _, c := range cands {
		if tallest[[3]int{c.R0, c.C0, c.C1}] == c.R1 {
			n++
		}
	}
	return n
}

func TestEnumeratePaperExample(t *testing.T) {
	// The worked example of §3.3.1:
	//   row1: 0 1 1
	//   row2: 1 1 0
	//   row3: 1 0 0
	// Anchors at row 0 produce a 1x2 run (cols 1-2, height 1) and a
	// 2x1 run (col 1, height 2). Anchor row 1 produces runs (cols 0-1,
	// h 1) and (col 0, h 2); anchor row 2 produces (col 0, h 1).
	bm := mk(t,
		".##",
		"##.",
		"#..",
	)
	cands := sweep(t, bm)
	want := map[grid.Rect]bool{
		{R0: 0, C0: 1, R1: 0, C1: 2}: true, // top row run
		{R0: 0, C0: 1, R1: 1, C1: 1}: true, // the dashed-circle 1-by-2 cluster
		{R0: 1, C0: 0, R1: 1, C1: 1}: true, // the solid-circle 2-by-1 cluster
		{R0: 1, C0: 0, R1: 2, C1: 0}: true,
		{R0: 2, C0: 0, R1: 2, C1: 0}: true,
	}
	got := map[grid.Rect]bool{}
	for _, c := range cands {
		got[c] = true
	}
	for r := range want {
		if !got[r] {
			t.Errorf("missing candidate %v; got %v", r, cands)
		}
	}
}

func TestEnumerateCandidatesAreAllSet(t *testing.T) {
	bm := mk(t,
		"##..#",
		"###.#",
		".##..",
	)
	for _, cand := range sweep(t, bm) {
		for r := cand.R0; r <= cand.R1; r++ {
			for c := cand.C0; c <= cand.C1; c++ {
				if !bm.Get(r, c) {
					t.Fatalf("candidate %v covers unset cell (%d,%d)", cand, r, c)
				}
			}
		}
	}
}

func TestEnumerateEmpty(t *testing.T) {
	bm, _ := grid.New(4, 4)
	if cands := sweep(t, bm); len(cands) != 0 {
		t.Errorf("empty bitmap produced candidates %v", cands)
	}
}

func TestClusterSingleRectangle(t *testing.T) {
	bm := mk(t,
		".....",
		".###.",
		".###.",
		".....",
	)
	clusters := Cluster(bm, Options{})
	if len(clusters) != 1 {
		t.Fatalf("clusters = %v, want one rectangle", clusters)
	}
	want := grid.Rect{R0: 1, C0: 1, R1: 2, C1: 3}
	if clusters[0] != want {
		t.Errorf("cluster = %v, want %v", clusters[0], want)
	}
}

func TestClusterTwoRectangles(t *testing.T) {
	// The Figure 5 shape: two overlapping-edge rectangles covered by two
	// clusters.
	bm := mk(t,
		"####..",
		"####..",
		"..####",
		"..####",
	)
	clusters := Cluster(bm, Options{})
	if len(clusters) > 3 {
		t.Fatalf("got %d clusters %v; expect near-optimal (2-3)", len(clusters), clusters)
	}
	// All set cells must be covered.
	covered := func(r, c int) bool {
		for _, cl := range clusters {
			if cl.Contains(r, c) {
				return true
			}
		}
		return false
	}
	for r := 0; r < bm.Rows(); r++ {
		for c := 0; c < bm.Cols(); c++ {
			if bm.Get(r, c) && !covered(r, c) {
				t.Errorf("cell (%d,%d) not covered by %v", r, c, clusters)
			}
		}
	}
}

func TestClusterCoversExactlyWithMinArea1(t *testing.T) {
	bm := mk(t,
		"#.#",
		".#.",
		"#.#",
	)
	clusters := Cluster(bm, Options{})
	// Five isolated cells -> five 1x1 clusters.
	if len(clusters) != 5 {
		t.Errorf("clusters = %v, want 5 singletons", clusters)
	}
}

func TestClusterMinAreaPrunesNoise(t *testing.T) {
	bm := mk(t,
		"####.",
		"####.",
		"....#", // isolated noise cell
	)
	clusters := Cluster(bm, Options{MinArea: 2})
	if len(clusters) != 1 {
		t.Fatalf("clusters = %v, want the 4x2 block only", clusters)
	}
	if clusters[0].Area() != 8 {
		t.Errorf("cluster area = %d, want 8", clusters[0].Area())
	}
}

func TestClusterMaxClusters(t *testing.T) {
	bm := mk(t,
		"#.#.#",
	)
	clusters := Cluster(bm, Options{MaxClusters: 2})
	if len(clusters) != 2 {
		t.Errorf("MaxClusters ignored: %v", clusters)
	}
}

func TestClusterInputUnmodified(t *testing.T) {
	bm := mk(t,
		"##",
		"##",
	)
	before := bm.PopCount()
	Cluster(bm, Options{})
	if bm.PopCount() != before {
		t.Error("Cluster modified its input bitmap")
	}
}

func TestClusterGreedyPicksLargestFirst(t *testing.T) {
	bm := mk(t,
		"###....",
		"###....",
		"###....",
		".....##",
		".....##",
	)
	clusters := Cluster(bm, Options{})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if clusters[0].Area() != 9 || clusters[1].Area() != 4 {
		t.Errorf("greedy order wrong: %v", clusters)
	}
}

func TestClusterLShapeDecomposition(t *testing.T) {
	// An L shape cannot be one rectangle; greedy should use exactly two.
	bm := mk(t,
		"#...",
		"#...",
		"####",
	)
	clusters := Cluster(bm, Options{})
	if len(clusters) != 2 {
		t.Fatalf("L-shape gave %v, want 2 clusters", clusters)
	}
	total := 0
	for _, c := range clusters {
		total += c.Area()
	}
	if total != 6 {
		t.Errorf("total covered area = %d, want 6 (no overlap for this shape)", total)
	}
}

func TestSortRects(t *testing.T) {
	rects := []grid.Rect{
		{R0: 2, C0: 0, R1: 2, C1: 0},
		{R0: 0, C0: 3, R1: 1, C1: 4},
		{R0: 0, C0: 1, R1: 0, C1: 1},
	}
	SortRects(rects)
	if rects[0].C0 != 1 || rects[1].C0 != 3 || rects[2].R0 != 2 {
		t.Errorf("sorted = %v", rects)
	}
}

func toBools(bm *grid.Bitmap) [][]bool {
	out := make([][]bool, bm.Rows())
	for r := range out {
		out[r] = make([]bool, bm.Cols())
		for c := 0; c < bm.Cols(); c++ {
			out[r][c] = bm.Get(r, c)
		}
	}
	return out
}

func TestClusterMatchesNaiveOracle(t *testing.T) {
	// Differential test: the word-packed implementation must agree with
	// the straightforward bool-matrix implementation on random grids,
	// and on 200×200 grids of overlapping blocks with noise and holes,
	// the shape a high-resolution rule grid has, where the sweeps emit
	// over 100,000 candidates.
	rng := rand.New(rand.NewSource(7))
	check := func(trial int, bm *grid.Bitmap, opts Options) {
		t.Helper()
		fast := Cluster(bm, opts)
		slow := ClusterNaive(toBools(bm), opts)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("trial %d (%dx%d, minArea %d):\nfast = %v\nslow = %v\ngrid:\n%s",
				trial, bm.Rows(), bm.Cols(), opts.MinArea, fast, slow, bm)
		}
	}
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(90) // crosses the 64-bit word boundary often
		bm := randomBitmap(rng, rows, cols, rng.Float64())
		check(trial, bm, Options{MinArea: 1 + rng.Intn(3)})
	}
	for trial := 200; trial < 203; trial++ {
		bm := randomBitmap(rng, 200, 200, 0.02)
		for i := 0; i < 12; i++ {
			r0, c0 := rng.Intn(180), rng.Intn(180)
			bm.FillRect(grid.Rect{R0: r0, C0: c0, R1: r0 + rng.Intn(200-r0), C1: c0 + rng.Intn(200-c0)})
		}
		for i := 0; i < 60; i++ {
			bm.Clear(rng.Intn(200), rng.Intn(200)) // holes
		}
		check(trial, bm, Options{MinArea: []int{1, 4, 400}[trial-200]})
	}
}

func TestClusterCoverageInvariant(t *testing.T) {
	// Property: with MinArea 1, the clusters cover every set cell and
	// nothing but set cells.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(70)
		bm, _ := grid.New(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < 0.4 {
					bm.Set(r, c)
				}
			}
		}
		clusters := Cluster(bm, Options{})
		covered, _ := grid.New(rows, cols)
		for _, cl := range clusters {
			for r := cl.R0; r <= cl.R1; r++ {
				for c := cl.C0; c <= cl.C1; c++ {
					if !bm.Get(r, c) {
						t.Fatalf("trial %d: cluster %v covers unset cell (%d,%d)", trial, cl, r, c)
					}
					covered.Set(r, c)
				}
			}
		}
		if covered.PopCount() != bm.PopCount() {
			t.Fatalf("trial %d: covered %d of %d set cells", trial, covered.PopCount(), bm.PopCount())
		}
	}
}

func TestClusterNaiveEmpty(t *testing.T) {
	if got := ClusterNaive(nil, Options{}); got != nil {
		t.Errorf("nil grid gave %v", got)
	}
}

func TestClusterDisjointProperty(t *testing.T) {
	// Property: greedy selection clears chosen cells, so the final
	// clusters are pairwise disjoint regardless of input.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		bm := randomBitmap(rng, 1+rng.Intn(15), 1+rng.Intn(80), rng.Float64())
		clusters := Cluster(bm, Options{MinArea: 1 + rng.Intn(3)})
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if clusters[i].Intersects(clusters[j]) {
					t.Fatalf("trial %d: clusters %v and %v overlap", trial, clusters[i], clusters[j])
				}
			}
		}
	}
}

func TestClusterDeterministicProperty(t *testing.T) {
	// Property: clustering the same bitmap twice yields identical output.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		bm := randomBitmap(rng, 1+rng.Intn(12), 1+rng.Intn(70), 0.5)
		a := Cluster(bm, Options{})
		b := Cluster(bm, Options{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: nondeterministic clustering", trial)
		}
	}
}

// TestBitOpRoundZeroAlloc guards the zero-allocation property of an
// enumeration round: with the enumerator's scratch masks made, the full
// anchor sweep must not allocate, however many candidates it emits.
// This is what makes the per-round reuse in Cluster pay off — a greedy
// clustering of k rounds costs one enumerator, not k.
func TestBitOpRoundZeroAlloc(t *testing.T) {
	bm, err := grid.New(70, 130) // >2 words per row exercises the multi-word path
	if err != nil {
		t.Fatal(err)
	}
	// A few overlapping rectangles plus scattered noise so the sweep
	// emits candidates at several heights.
	bm.FillRect(grid.Rect{R0: 3, C0: 5, R1: 40, C1: 70})
	bm.FillRect(grid.Rect{R0: 20, C0: 60, R1: 65, C1: 128})
	bm.FillRect(grid.Rect{R0: 0, C0: 0, R1: 2, C1: 3})
	for i := 0; i < 70; i += 7 {
		bm.Set(i, (i*13)%130)
	}
	e := newEnumerator(bm)
	allocs := testing.AllocsPerRun(200, func() {
		e.run(bm, nil)
	})
	if allocs != 0 {
		t.Errorf("enumerator round allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnumerateOffersUndominated holds a full enumeration to the naive
// candidate list on random bitmaps of 1–12 rows by 1–200 columns.
func TestEnumerateOffersUndominated(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		sweep(t, randomBitmap(rng, 1+rng.Intn(12), 1+rng.Intn(200), rng.Float64()))
	}
}

// TestIncrementalRoundsMatchFresh steps Cluster's loop by hand on random
// bitmaps of 1–70 rows by 1–200 columns (one to four words a row) at
// densities from 0 to 1, down to the empty bitmap: before every clear,
// the incremental enumerator's pick, and whether it has one, must equal
// a fresh enumerator's on the same working bitmap.
func TestIncrementalRoundsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		rows, cols := 1+rng.Intn(70), 1+rng.Intn(200)
		density := []float64{0, 1, rng.Float64(), rng.Float64()}[trial%4]
		work := randomBitmap(rng, rows, cols, density)
		if trial%3 == 0 {
			// Blocks over sparse noise: large picks whose clears leave
			// most anchors' caches valid.
			for i := 0; i < 4; i++ {
				r0, c0 := rng.Intn(rows), rng.Intn(cols)
				work.FillRect(grid.Rect{R0: r0, C0: c0, R1: r0 + rng.Intn(rows-r0), C1: c0 + rng.Intn(cols-c0)})
			}
		}
		inc := newEnumerator(work)
		for round := 0; ; round++ {
			got, ok := inc.run(work, nil)
			want, wantOK := newEnumerator(work).run(work, nil)
			if got != want || ok != wantOK {
				t.Fatalf("trial %d (%dx%d, density %.2f), round %d: incremental pick %v (%v), fresh %v (%v)",
					trial, rows, cols, density, round, got, ok, want, wantOK)
			}
			if !ok {
				break
			}
			inc.clear(work, got)
		}
		if work.Any() {
			t.Fatalf("trial %d: no candidate left, but %d cells set", trial, work.PopCount())
		}
	}
}

// TestClearPanicsOnStalePick: a pick that covers no set cell can only
// come from a stale cache, and would be picked again every round, so
// clear panics and names it.
func TestClearPanicsOnStalePick(t *testing.T) {
	bm := mk(t,
		"##.",
		"...",
	)
	e := newEnumerator(bm)
	pick, _ := e.run(bm, nil)
	e.clear(bm, pick)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, pick.String()) {
			t.Fatalf("clearing %v twice: recovered %q, want a panic naming it", pick, msg)
		}
	}()
	e.clear(bm, pick)
}

// TestBitOpIncrementalRoundZeroAlloc extends TestBitOpRoundZeroAlloc to
// the rounds after a clear: a full round, a clear and the round that
// re-sweeps what the clear changed allocate nothing.
func TestBitOpIncrementalRoundZeroAlloc(t *testing.T) {
	bm := randomBitmap(rand.New(rand.NewSource(43)), 70, 130, 0.6)
	bm.FillRect(grid.Rect{R0: 10, C0: 20, R1: 50, C1: 100})
	work := bm.Clone()
	e := newEnumerator(work)
	allocs := testing.AllocsPerRun(100, func() {
		for r := 0; r < bm.Rows(); r++ {
			work.SetRow(r, bm.Row(r))
			e.anchors[r].last = -1
		}
		pick, _ := e.run(work, nil)
		e.clear(work, pick)
		e.run(work, nil)
	})
	if allocs != 0 {
		t.Errorf("round, clear and incremental round allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzClusterMatchesNaive holds Cluster to ClusterNaive on bitmaps of up
// to 70×200: rows and cols give the shape (1–70 by 1–200), minArea and
// maxClusters give MinArea (0–7) and MaxClusters (0–15, 0 unbounded),
// and the bits of cells, repeated, set the cells in row-major order.
// ClusterNaive re-enumerates the whole grid every round, so an input's
// cost grows with its rounds and with the bytes the fuzzer minimizes
// (its subset pass is quadratic in them): a grid over 1,024 cells gets
// 1–8 clusters, and only the first 64 bytes of cells are read.
func FuzzClusterMatchesNaive(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), []byte{0x0b})
	f.Add(uint8(7), uint8(9), uint8(1), uint8(0), []byte{0xff, 0x7f, 0xee, 0x3c, 0x81, 0xff, 0xf0, 0x0f})
	f.Add(uint8(5), uint8(199), uint8(0), uint8(7), []byte{0xff, 0xfb, 0xff, 0x7f, 0xff})
	f.Add(uint8(69), uint8(129), uint8(2), uint8(3), []byte{0xf7, 0xbf, 0xff, 0x3e, 0xff, 0xff, 0xdf})
	f.Add(uint8(30), uint8(33), uint8(0), uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0xff, 0xff, 0x18})
	f.Fuzz(func(t *testing.T, rows, cols, minArea, maxClusters uint8, cells []byte) {
		r, c := int(rows)%70+1, int(cols)%200+1
		opts := Options{MinArea: int(minArea) % 8, MaxClusters: int(maxClusters) % 16}
		if r*c > 1024 {
			opts.MaxClusters = int(maxClusters)%8 + 1
		}
		bm, err := grid.New(r, c)
		if err != nil {
			t.Fatal(err)
		}
		if bits := cells[:min(len(cells), 64)]; len(bits) > 0 {
			for i := 0; i < r*c; i++ {
				if j := i % (8 * len(bits)); bits[j/8]&(1<<(j%8)) != 0 {
					bm.Set(i/c, i%c)
				}
			}
		}
		got := Cluster(bm, opts)
		if want := ClusterNaive(toBools(bm), opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%dx%d, %+v:\nCluster      = %v\nClusterNaive = %v\ngrid:\n%s", r, c, opts, got, want, bm)
		}
	})
}
