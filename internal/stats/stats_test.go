package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLog2Guarded(t *testing.T) {
	if Log2(0) != 0 || Log2(-3) != 0 {
		t.Error("Log2 of non-positive should be 0")
	}
	if !approx(Log2(8), 3, 1e-12) {
		t.Errorf("Log2(8) = %v", Log2(8))
	}
}

func TestEntropy(t *testing.T) {
	cases := []struct {
		counts []float64
		want   float64
	}{
		{[]float64{1, 1}, 1},
		{[]float64{1, 1, 1, 1}, 2},
		{[]float64{5, 0}, 0},
		{[]float64{}, 0},
		{[]float64{0, 0}, 0},
		{[]float64{3, 1}, 0.8112781244591328},
	}
	for _, c := range cases {
		if got := Entropy(c.counts); !approx(got, c.want, 1e-12) {
			t.Errorf("Entropy(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestEntropyNonNegativeAndBounded(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]float64, len(raw))
		nonzero := 0
		for i, r := range raw {
			counts[i] = float64(r)
			if r > 0 {
				nonzero++
			}
		}
		h := Entropy(counts)
		if h < 0 {
			return false
		}
		if nonzero > 0 && h > math.Log2(float64(len(counts)))+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInfoGainPerfectSplit(t *testing.T) {
	// Parent: 2 classes 50/50 (entropy 1). Children pure -> gain 1.
	children := [][]float64{{10, 0}, {0, 10}}
	if got := InfoGain(children); !approx(got, 1, 1e-12) {
		t.Errorf("InfoGain perfect = %v", got)
	}
	// Useless split: children mirror parent -> gain 0.
	children = [][]float64{{5, 5}, {5, 5}}
	if got := InfoGain(children); !approx(got, 0, 1e-12) {
		t.Errorf("InfoGain useless = %v", got)
	}
	if got := InfoGain(nil); got != 0 {
		t.Errorf("InfoGain(nil) = %v", got)
	}
}

func TestGainRatio(t *testing.T) {
	children := [][]float64{{10, 0}, {0, 10}}
	// Gain 1, split info 1 -> ratio 1.
	if got := GainRatio(children); !approx(got, 1, 1e-12) {
		t.Errorf("GainRatio = %v", got)
	}
	// Single child: split info 0 -> ratio defined as 0.
	if got := GainRatio([][]float64{{5, 5}}); got != 0 {
		t.Errorf("GainRatio single child = %v", got)
	}
}

func TestInfoGainNonNegative(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		children := [][]float64{{float64(a), float64(b)}, {float64(c), float64(d)}}
		return InfoGain(children) >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !approx(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("mean of nothing should be 0")
	}
}
