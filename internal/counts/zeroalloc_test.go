package counts

import (
	"context"
	"testing"

	"arcs/internal/binning"
	"arcs/internal/dataset"
)

func zeroAllocSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
}

func zeroAllocTable(n int) *dataset.Table {
	tb := dataset.NewTable(zeroAllocSchema())
	for i := 0; i < n; i++ {
		tb.MustAppend(dataset.Tuple{float64(i % 100), float64(i % 77), float64(i % 3)})
	}
	return tb
}

func zeroAllocFuncSource(n int) *dataset.FuncSource {
	return dataset.NewFuncSource(zeroAllocSchema(), n, func(i int, out dataset.Tuple) {
		out[0] = float64(i % 100)
		out[1] = float64(i % 77)
		out[2] = float64(i % 3)
	})
}

// TestIngestZeroAllocPerTuple guards the zero-allocation property of the
// ingest hot loop: a dense build allocates a constant number of objects
// (the count array and its wrapper, the streaming checkpoint) regardless
// of how many tuples flow through it. The guard measures whole builds at
// two sizes 16× apart — if any code path allocated per tuple, the large
// build's count would exceed the small one's by thousands.
func TestIngestZeroAllocPerTuple(t *testing.T) {
	xb, err := binning.NewEquiWidth(0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := binning.NewEquiWidth(0, 77, 50)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{XIdx: 0, YIdx: 1, CritIdx: 2, XBinner: xb, YBinner: yb, NSeg: 3}
	ctx := context.Background()

	sources := []struct {
		name       string
		small, big dataset.Source
	}{
		{"table", zeroAllocTable(1_000), zeroAllocTable(16_000)},
		{"funcsource", zeroAllocFuncSource(1_000), zeroAllocFuncSource(16_000)},
	}
	for _, src := range sources {
		build := func(s dataset.Source) func() {
			return func() {
				if _, err := Build(ctx, s, spec, Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		smallAllocs := testing.AllocsPerRun(20, build(src.small))
		bigAllocs := testing.AllocsPerRun(20, build(src.big))
		if bigAllocs > smallAllocs {
			t.Errorf("%s: build over 16k tuples allocates %.1f objects vs %.1f over 1k — ingest is allocating per tuple",
				src.name, bigAllocs, smallAllocs)
		}
		t.Logf("%s: constant allocations per build: %.1f", src.name, bigAllocs)
	}
}
