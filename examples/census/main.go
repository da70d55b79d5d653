// Census-style segmentation on the paper's own benchmark data: the
// Agrawal et al. generator with classification Function 2, 5%
// perturbation and 10% outliers (paper Table 1). The example shows the
// pieces a practitioner would actually touch:
//
//   - automatic LHS attribute selection by information gain (paper §5),
//
//   - the full ARCS threshold search on the selected pair,
//
//   - a comparison of the three binning strategies.
//
//     go run ./examples/census
package main

import (
	"fmt"
	"log"

	"arcs"
)

func main() {
	gen, err := arcs.NewGenerator(arcs.SynthConfig{
		Function:        2,
		N:               50_000,
		Seed:            1997,
		Perturbation:    0.05,
		OutlierFraction: 0.10,
		FracA:           0.40,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Attribute selection needs a materialized sample.
	sample, err := arcs.Materialize(limit(gen, 10_000))
	if err != nil {
		log.Fatal(err)
	}
	_, _, single, err := arcs.SelectAttributePair(sample, "group", 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("univariate information gain against 'group':")
	for _, s := range single {
		fmt.Printf("  %-12s %.4f\n", s.Attr, s.Gain)
	}
	// Univariate gain misleads on Function 2 (age is marginally flat by
	// construction); joint pair scoring finds the true (age, salary)
	// interaction.
	x, y, pairs, err := arcs.SelectAttributePairJoint(sample, "group", 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top attribute pairs by joint information gain:")
	for i, p := range pairs {
		if i == 3 {
			break
		}
		fmt.Printf("  (%s, %s) %.4f\n", p.X, p.Y, p.Gain)
	}
	fmt.Printf("selected LHS pair: (%s, %s)\n\n", x, y)

	strategies := []struct {
		name string
		cfg  arcs.Config
	}{
		{"equi-width", baseConfig(x, y)},
		{"equi-depth", withStrategy(baseConfig(x, y), arcs.BinEquiDepth)},
		{"homogeneity", withStrategy(baseConfig(x, y), arcs.BinHomogeneity)},
	}
	for _, s := range strategies {
		if err := gen.Reset(); err != nil {
			log.Fatal(err)
		}
		res, err := arcs.Mine(gen, s.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s binning ==\n", s.name)
		for _, r := range res.Rules {
			fmt.Printf("  %s\n", r)
		}
		fmt.Printf("  %d rules, verification %s\n\n", len(res.Rules), res.Errors)
	}
}

func baseConfig(x, y string) arcs.Config {
	return arcs.Config{
		XAttr: x, YAttr: y,
		CritAttr: "group", CritValue: "A",
		NumBins: 50,
		Seed:    1,
	}
}

func withStrategy(cfg arcs.Config, strat arcs.BinStrategy) arcs.Config {
	cfg.BinStrategy = strat
	return cfg
}

// limit caps a source at n tuples for sampling.
func limit(src arcs.Source, n int) arcs.Source {
	return arcs.Limit(src, n)
}
