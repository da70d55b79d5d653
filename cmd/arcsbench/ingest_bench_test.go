package main

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"arcs/internal/counts"
	"arcs/internal/dataset"
	"arcs/internal/experiments"
)

// ingestFixture materializes the benchmark table once per process; at a
// million rows the synthesis dominates any single measurement otherwise.
var ingestFixture struct {
	once sync.Once
	tab  *dataset.Table
	spec counts.Spec
	err  error
}

func ingestInputs(b *testing.B, n int) (*dataset.Table, counts.Spec) {
	b.Helper()
	ingestFixture.once.Do(func() {
		ingestFixture.tab, ingestFixture.spec, ingestFixture.err = experiments.IngestSpec(n, 50)
	})
	if ingestFixture.err != nil {
		b.Fatal(ingestFixture.err)
	}
	if ingestFixture.tab.Len() != n {
		b.Fatalf("fixture has %d rows, want %d (mixed -bench sizes?)", ingestFixture.tab.Len(), n)
	}
	return ingestFixture.tab, ingestFixture.spec
}

// BenchmarkIngest measures the counting pass over a million Figure-11
// tuples: the sequential dense build against the sharded build at 1, 2,
// 4 and 8 workers. The acceptance bar for the sharded backend is >= 2x
// the dense throughput at 4 workers on multi-core hardware.
func BenchmarkIngest(b *testing.B) {
	const n = 1_000_000
	tab, spec := ingestInputs(b, n)
	b.Run("dense", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			if _, err := counts.Build(context.Background(), tab, spec, counts.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded-%d", workers), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				if _, _, err := counts.BuildSharded(context.Background(), tab, workers, spec, counts.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
