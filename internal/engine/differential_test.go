package engine

import (
	"math"
	"math/rand"
	"testing"

	"arcs/internal/apriori"
	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/rules"
)

// TestEngineMatchesApriori cross-validates the special-purpose 2D engine
// against the generic Apriori miner: on the same binned data, the cell
// rules X=i ∧ Y=j ⇒ G=g that the engine emits must be exactly the
// {x, y} ⇒ {g} rules Apriori finds at equivalent thresholds, with equal
// support and confidence. This is the paper's §3.2 claim that the
// BinArray engine is a faster specialization of, not a departure from,
// standard association rule mining.
func TestEngineMatchesApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	const (
		nx, ny, nseg = 4, 4, 2
		nTuples      = 400
	)
	for trial := 0; trial < 10; trial++ {
		// Random binned data over (x, y, g).
		schema := dataset.NewSchema(
			dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
			dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
			dataset.Attribute{Name: "g", Kind: dataset.Quantitative},
		)
		tb := dataset.NewTable(schema)
		ba, err := counts.NewDense(nx, ny, nseg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nTuples; i++ {
			x, y, g := rng.Intn(nx), rng.Intn(ny), rng.Intn(nseg)
			tb.MustAppend(dataset.Tuple{float64(x), float64(y), float64(g)})
			ba.Add(x, y, g)
		}

		minSup := 0.005 + rng.Float64()*0.02
		minConf := 0.3 + rng.Float64()*0.3

		seg := rng.Intn(nseg)
		engineRules, err := GenAssociationRules(ba, seg, minSup, minConf)
		if err != nil {
			t.Fatal(err)
		}

		aprioriRules, err := apriori.Mine(tb, apriori.Config{
			MinSupport:     minSup,
			MinConfidence:  minConf,
			MaxItemsetSize: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Filter Apriori's output down to {x=i, y=j} => {g=seg}.
		type key struct{ x, y int }
		fromApriori := map[key]rules.Rule{}
		for _, r := range aprioriRules {
			if len(r.X) != 2 || len(r.Y) != 1 {
				continue
			}
			if r.Y[0].Attr != 2 || r.Y[0].Val != seg {
				continue
			}
			if r.X[0].Attr != 0 || r.X[1].Attr != 1 {
				continue
			}
			fromApriori[key{r.X[0].Val, r.X[1].Val}] = r
		}

		if len(fromApriori) != len(engineRules) {
			t.Fatalf("trial %d (sup %.3f conf %.2f): engine found %d rules, apriori %d",
				trial, minSup, minConf, len(engineRules), len(fromApriori))
		}
		for _, er := range engineRules {
			ar, ok := fromApriori[key{er.X, er.Y}]
			if !ok {
				t.Fatalf("trial %d: engine rule (%d,%d) missing from apriori", trial, er.X, er.Y)
			}
			if math.Abs(er.Support-ar.Support) > 1e-12 {
				t.Errorf("trial %d: support %v vs %v at (%d,%d)", trial, er.Support, ar.Support, er.X, er.Y)
			}
			if math.Abs(er.Confidence-ar.Confidence) > 1e-12 {
				t.Errorf("trial %d: confidence %v vs %v at (%d,%d)", trial, er.Confidence, ar.Confidence, er.X, er.Y)
			}
		}
	}
}
