package binning

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEquiWidthBasics(t *testing.T) {
	e, err := NewEquiWidth(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumBins() != 10 {
		t.Fatalf("NumBins = %d", e.NumBins())
	}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {5, 0}, {10, 1}, {99.9, 9}, {100, 9},
		{-5, 0},  // clamp below
		{150, 9}, // clamp above
	}
	for _, c := range cases {
		if got := e.Bin(c.v); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	lo, hi := e.Bounds(3)
	if lo != 30 || hi != 40 {
		t.Errorf("Bounds(3) = [%v, %v)", lo, hi)
	}
}

func TestEquiWidthErrors(t *testing.T) {
	if _, err := NewEquiWidth(0, 100, 0); err == nil {
		t.Error("zero bins should error")
	}
	if _, err := NewEquiWidth(5, 5, 3); err == nil {
		t.Error("empty domain should error")
	}
	if _, err := NewEquiWidthFromData(nil, 3); err == nil {
		t.Error("no data should error")
	}
}

func TestEquiWidthFromDataDegenerateDomain(t *testing.T) {
	e, err := NewEquiWidthFromData([]float64{7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := e.Bin(7)
	if b < 0 || b >= e.NumBins() {
		t.Errorf("constant data bin = %d out of range", b)
	}
}

func TestEquiWidthRoundTripProperty(t *testing.T) {
	e, _ := NewEquiWidth(-50, 50, 25)
	f := func(raw int16) bool {
		v := float64(raw) / 400 // within and slightly beyond domain
		b := e.Bin(v)
		if b < 0 || b >= e.NumBins() {
			return false
		}
		lo, hi := e.Bounds(b)
		if v >= -50 && v < 50 {
			// In-domain values must land inside their bin's bounds
			// (allowing the half-open convention).
			return v >= lo-1e-9 && v < hi+1e-9
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquiDepthBalancedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Skewed data: equi-depth should still give balanced counts.
	values := make([]float64, 10000)
	for i := range values {
		v := rng.Float64()
		values[i] = v * v * 100 // quadratic skew toward 0
	}
	e, err := NewEquiDepth(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, e.NumBins())
	for _, v := range values {
		counts[e.Bin(v)]++
	}
	for b, c := range counts {
		if c < 500 || c > 2000 {
			t.Errorf("bin %d holds %d of 10000; equi-depth should be ~1000", b, c)
		}
	}
}

func TestEquiDepthBoundsMonotone(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	e, err := NewEquiDepth(values, 5)
	if err != nil {
		t.Fatal(err)
	}
	prevHi := -1e18
	for b := 0; b < e.NumBins(); b++ {
		lo, hi := e.Bounds(b)
		if lo >= hi {
			t.Errorf("bin %d has empty range [%v, %v)", b, lo, hi)
		}
		if lo < prevHi {
			t.Errorf("bin %d overlaps previous", b)
		}
		prevHi = hi
	}
}

func TestEquiDepthRepeatedValues(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = 5 // all identical
	}
	e, err := NewEquiDepth(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumBins() < 1 {
		t.Fatal("no bins for constant data")
	}
	if b := e.Bin(5); b < 0 || b >= e.NumBins() {
		t.Errorf("Bin(5) = %d out of range", b)
	}
}

func TestEquiDepthErrors(t *testing.T) {
	if _, err := NewEquiDepth(nil, 5); err == nil {
		t.Error("no data should error")
	}
	if _, err := NewEquiDepth([]float64{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestEquiDepthClampAndCoverage(t *testing.T) {
	values := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	e, _ := NewEquiDepth(values, 4)
	if e.Bin(-100) != 0 {
		t.Error("below-domain should clamp to bin 0")
	}
	if e.Bin(1000) != e.NumBins()-1 {
		t.Error("above-domain should clamp to last bin")
	}
	for _, v := range values {
		b := e.Bin(v)
		lo, hi := e.Bounds(b)
		if v < lo-1e-9 || (v > hi+1e-9 && b != e.NumBins()-1) {
			t.Errorf("value %v assigned bin %d with bounds [%v,%v)", v, b, lo, hi)
		}
	}
}

func TestHomogeneitySplitsAtDensityChange(t *testing.T) {
	// Two uniform plateaus of very different density: a homogeneity
	// binner with 2 bins should put its boundary near the plateau edge.
	rng := rand.New(rand.NewSource(2))
	var values []float64
	for i := 0; i < 9000; i++ {
		values = append(values, rng.Float64()*50) // dense [0,50)
	}
	for i := 0; i < 1000; i++ {
		values = append(values, 50+rng.Float64()*50) // sparse [50,100)
	}
	h, err := NewHomogeneity(values, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBins() != 2 {
		t.Fatalf("NumBins = %d", h.NumBins())
	}
	_, boundary := h.Bounds(0)
	if boundary < 35 || boundary > 65 {
		t.Errorf("boundary at %v, want near 50", boundary)
	}
}

func TestHomogeneityCoverage(t *testing.T) {
	values := []float64{1, 2, 3, 10, 11, 12, 100}
	h, err := NewHomogeneity(values, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		b := h.Bin(v)
		if b < 0 || b >= h.NumBins() {
			t.Errorf("Bin(%v) = %d out of range", v, b)
		}
	}
	if _, err := NewHomogeneity(nil, 3); err == nil {
		t.Error("no data should error")
	}
	if _, err := NewHomogeneity(values, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestCategoricalIdentity(t *testing.T) {
	c, err := NewCategorical(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBins() != 5 {
		t.Fatalf("NumBins = %d", c.NumBins())
	}
	for code := 0; code < 5; code++ {
		if got := c.Bin(float64(code)); got != code {
			t.Errorf("Bin(%d) = %d", code, got)
		}
		if lo, hi := c.Bounds(code); lo != float64(code) || hi != float64(code+1) {
			t.Errorf("Bounds(%d) = [%v, %v)", code, lo, hi)
		}
	}
	if c.Bin(-1) != 0 || c.Bin(99) != 4 {
		t.Error("out-of-range codes should clamp")
	}
	lo, hi := c.Bounds(2)
	if lo != 2 || hi != 3 {
		t.Errorf("Bounds(2) = [%v, %v)", lo, hi)
	}
	if _, err := NewCategorical(0); err == nil {
		t.Error("zero categories should error")
	}
}
