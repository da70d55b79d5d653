package engine

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"arcs/internal/counts"
	"arcs/internal/grid"
)

// supConf is one occupied cell's (support, confidence), as the index's
// predecessor listed them.
type supConf struct{ sup, conf float64 }

// oldThresholds is the index's predecessor: every occupied cell's
// (support, confidence) sorted by support then confidence, and the
// unique supports. Its cells come from GenAssociationRules at zero
// thresholds, whose Support and Confidence are the expressions it used.
func oldThresholds(t *testing.T, ba counts.Backend, seg int) (cells []supConf, supports []float64) {
	t.Helper()
	rs, err := GenAssociationRules(ba, seg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		cells = append(cells, supConf{r.Support, r.Confidence})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].sup != cells[j].sup {
			return cells[i].sup < cells[j].sup
		}
		return cells[i].conf < cells[j].conf
	})
	for i, c := range cells {
		if i == 0 || c.sup != cells[i-1].sup {
			supports = append(supports, c.sup)
		}
	}
	return cells, supports
}

// oldConfidencesAtOrAbove is the map-and-sort ConfidencesAtOrAbove the
// index's one filter replaced: the oracle of that filter.
func oldConfidencesAtOrAbove(cells []supConf, sup float64) []float64 {
	start := sort.Search(len(cells), func(i int) bool { return cells[i].sup >= sup })
	seen := make(map[float64]struct{})
	var out []float64
	for _, sc := range cells[start:] {
		if _, dup := seen[sc.conf]; !dup {
			seen[sc.conf] = struct{}{}
			out = append(out, sc.conf)
		}
	}
	sort.Float64s(out)
	return out
}

// FuzzRuleIndex holds the per-criterion index to GenAssociationRules
// and to the structure it replaced, on dense and sparse backends of
// 1–70 × 1–200 cells and 1–4 criterion values holding the same counts:
// empty, one-tuple and saturated cells, and N past 2^32. At every pair
// of a support level (each c/N, where c/N×N may round above c) and a
// confidence level offered there, at 0 and 1, and at the fuzzed
// thresholds, the index's rule grid sets exactly GenAssociationRules'
// cells; its support grid holds the supports of the confidence-passing
// cells; its supports and confidence levels equal the old structure's;
// and thresholds outside [0, 1], NaN among them, are errors.
func FuzzRuleIndex(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), int64(1), uint16(5), uint8(0), 0.1, 0.5)
	f.Add(uint8(22), uint8(69), uint8(2), int64(25), uint16(255), uint8(0), 0.01, 0.3)
	f.Add(uint8(69), uint8(199), uint8(3), int64(7), uint16(200), uint8(7), 0.0, 1.0)
	f.Add(uint8(0), uint8(0), uint8(1), int64(3), uint16(9), uint8(3), math.NaN(), 0.2)
	f.Add(uint8(5), uint8(130), uint8(1), int64(11), uint16(120), uint8(4), 1e-9, 1.5)
	f.Fuzz(func(t *testing.T, nx8, ny8, nseg8 uint8, seed int64, tuples uint16, special uint8, sup, conf float64) {
		nx, ny, nseg := int(nx8)%70+1, int(ny8)%200+1, int(nseg8)%4+1
		dense, err := counts.NewDense(nx, ny, nseg)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := counts.NewSparse(nx, ny, nseg)
		if err != nil {
			t.Fatal(err)
		}
		add := func(x, y, seg int, n uint32) {
			dense.AddN(x, y, seg, n)
			sparse.AddN(x, y, seg, n)
		}
		rng := rand.New(rand.NewSource(seed))
		// A few hot cells repeat supports and confidences; the rest are
		// mostly one-tuple cells among empty ones.
		hot := [][2]int{{rng.Intn(nx), rng.Intn(ny)}, {rng.Intn(nx), rng.Intn(ny)}, {0, 0}}
		for i := 0; i < int(tuples)%256; i++ {
			x, y := rng.Intn(nx), rng.Intn(ny)
			if rng.Intn(2) == 0 {
				c := hot[rng.Intn(len(hot))]
				x, y = c[0], c[1]
			}
			add(x, y, rng.Intn(nseg), 1)
		}
		if special&1 != 0 { // a saturated cell
			add(hot[0][0], hot[0][1], rng.Intn(nseg), math.MaxUint32)
		}
		if special&2 != 0 { // saturated again: N passes 2^33
			add(hot[0][0], hot[0][1], rng.Intn(nseg), math.MaxUint32)
		}
		if special&4 != 0 { // a large unsaturated cell: N passes 2^32
			add(hot[1][0], hot[1][1], rng.Intn(nseg), math.MaxUint32-1)
			add(rng.Intn(nx), rng.Intn(ny), rng.Intn(nseg), 3)
		}
		for _, ba := range []counts.Backend{dense, sparse} {
			for seg := 0; seg < nseg; seg++ {
				checkIndex(t, ba, seg, sup, conf)
			}
		}
	})
}

// checkIndex runs FuzzRuleIndex's checks on one backend and criterion
// value.
func checkIndex(t *testing.T, ba counts.Backend, seg int, sup, conf float64) {
	t.Helper()
	th, err := NewThresholds(ba, seg)
	if err != nil {
		t.Fatal(err)
	}
	old, oldSups := oldThresholds(t, ba, seg)
	if !slices.Equal(th.Supports(), oldSups) {
		t.Fatalf("%T seg %d: Supports = %v, want %v", ba, seg, th.Supports(), oldSups)
	}
	for _, s := range append([]float64{0, 1, sup, math.NaN()}, oldSups...) {
		if got, want := th.ConfidencesAtOrAbove(s), oldConfidencesAtOrAbove(old, s); !slices.Equal(got, want) {
			t.Fatalf("%T seg %d: ConfidencesAtOrAbove(%g) = %v, want %v", ba, seg, s, got, want)
		}
	}
	for _, s := range append([]float64{0, 1}, oldSups...) {
		for _, c := range append([]float64{0, 1}, th.ConfidencesAtOrAbove(s)...) {
			checkRuleGrid(t, ba, th, seg, s, c)
		}
	}
	for _, c := range append([]float64{0, 1}, th.ConfidencesAtOrAbove(0)...) {
		checkSupportGrid(t, ba, th, seg, c)
	}
	if sup >= 0 && sup <= 1 && conf >= 0 && conf <= 1 {
		checkRuleGrid(t, ba, th, seg, sup, conf)
		return
	}
	if _, err := th.RuleGrid(sup, conf); err == nil {
		t.Fatalf("RuleGrid(%g, %g) should error", sup, conf)
	}
	if _, err := GenAssociationRules(ba, seg, sup, conf); err == nil {
		t.Fatalf("GenAssociationRules(%g, %g) should error", sup, conf)
	}
}

// checkSupportGrid fails the test unless the index's support grid at
// conf holds the support of each of GenAssociationRules' rules at zero
// support and conf, and zero elsewhere.
func checkSupportGrid(t *testing.T, ba counts.Backend, th *Thresholds, seg int, conf float64) {
	t.Helper()
	cellRules, err := GenAssociationRules(ba, seg, 0, conf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := th.SupportGrid(conf)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := grid.NewDense(ba.NY(), ba.NX())
	for _, r := range cellRules {
		want.Set(r.Y, r.X, r.Support)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T seg %d at confidence %g: the support grid differs from the %d rules' supports",
			ba, seg, conf, len(cellRules))
	}
}
