package binning

import (
	"math/rand"
	"testing"
)

func TestSupervisedFindsClassBoundary(t *testing.T) {
	// class = (v > 50): a single decisive cut near 50.
	rng := rand.New(rand.NewSource(1))
	var values []float64
	var classes []int
	for i := 0; i < 2000; i++ {
		v := rng.Float64() * 100
		c := 0
		if v > 50 {
			c = 1
		}
		values = append(values, v)
		classes = append(classes, c)
	}
	s, err := NewSupervised(values, classes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2 (one decisive cut)", s.NumBins())
	}
	_, cut := s.Bounds(0)
	if cut < 48 || cut > 52 {
		t.Errorf("cut at %v, want ~50", cut)
	}
}

func TestSupervisedTwoBoundaries(t *testing.T) {
	// class = 1 inside [30, 70): two cuts.
	rng := rand.New(rand.NewSource(2))
	var values []float64
	var classes []int
	for i := 0; i < 4000; i++ {
		v := rng.Float64() * 100
		c := 0
		if v >= 30 && v < 70 {
			c = 1
		}
		values = append(values, v)
		classes = append(classes, c)
	}
	s, err := NewSupervised(values, classes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBins() != 3 {
		t.Fatalf("bins = %d, want 3", s.NumBins())
	}
	_, c1 := s.Bounds(0)
	_, c2 := s.Bounds(1)
	if c1 < 27 || c1 > 33 || c2 < 67 || c2 > 73 {
		t.Errorf("cuts at %v, %v; want ~30 and ~70", c1, c2)
	}
}

func TestSupervisedRejectsNoiseCuts(t *testing.T) {
	// Random labels: the MDL criterion should accept no cut.
	rng := rand.New(rand.NewSource(3))
	var values []float64
	var classes []int
	for i := 0; i < 1000; i++ {
		values = append(values, rng.Float64()*100)
		classes = append(classes, rng.Intn(2))
	}
	s, err := NewSupervised(values, classes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBins() > 2 {
		t.Errorf("noise data produced %d bins; MDL should reject cuts", s.NumBins())
	}
}

func TestSupervisedMaxBinsCap(t *testing.T) {
	// A staircase of 8 class changes, capped at 4 bins.
	var values []float64
	var classes []int
	for i := 0; i < 800; i++ {
		values = append(values, float64(i))
		classes = append(classes, (i/100)%2)
	}
	s, err := NewSupervised(values, classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBins() > 4 {
		t.Errorf("bins = %d exceeds cap 4", s.NumBins())
	}
	if s.NumBins() < 2 {
		t.Errorf("bins = %d, want at least one accepted cut", s.NumBins())
	}
}

func TestSupervisedValidation(t *testing.T) {
	if _, err := NewSupervised(nil, nil, 4); err == nil {
		t.Error("empty data should error")
	}
	if _, err := NewSupervised([]float64{1, 2}, []int{0}, 4); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewSupervised([]float64{1, 2}, []int{0, 1}, 1); err == nil {
		t.Error("maxBins < 2 should error")
	}
	if _, err := NewSupervised([]float64{1, 2}, []int{0, -1}, 4); err == nil {
		t.Error("negative class should error")
	}
}

func TestSupervisedConstantValues(t *testing.T) {
	values := []float64{5, 5, 5, 5}
	classes := []int{0, 1, 0, 1}
	s, err := NewSupervised(values, classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Bin(5); b < 0 || b >= s.NumBins() {
		t.Errorf("Bin(5) = %d out of range", b)
	}
}
