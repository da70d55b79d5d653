package counts

import (
	"bytes"
	"context"
	"testing"

	"arcs/internal/binning"
	"arcs/internal/dataset"
)

// testSchema is (x quantitative, y quantitative, g categorical).
func testSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "y", Kind: dataset.Quantitative},
		dataset.Attribute{Name: "g", Kind: dataset.Categorical},
	)
	for _, label := range []string{"a", "b", "c"} {
		if _, err := schema.At(2).CategoryCode(label); err != nil {
			t.Fatal(err)
		}
	}
	return schema
}

// testTable builds n rows of deterministic pseudo-random data over
// testSchema using a small LCG, so shard tests exercise uneven counts.
func testTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(testSchema(t))
	state := uint64(1)
	next := func(mod int) float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64((state >> 33) % uint64(mod))
	}
	for i := 0; i < n; i++ {
		tab.MustAppend(dataset.Tuple{next(100), next(100), next(3)})
	}
	return tab
}

func testSpec(t *testing.T) Spec {
	t.Helper()
	xb, err := binning.NewEquiWidth(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := binning.NewEquiWidth(0, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{XIdx: 0, YIdx: 1, CritIdx: 2, XBinner: xb, YBinner: yb, NSeg: 3}
}

// TestShardedMatchesDenseByteIdentical is the core equivalence claim:
// any worker count produces the same bytes as the sequential build, and
// the strategy hands back a plain backend of the kind it filled.
func TestShardedMatchesDenseByteIdentical(t *testing.T) {
	tab := testTable(t, 10_007) // prime, so shards are uneven
	spec := testSpec(t)
	ref, err := Build(context.Background(), tab, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, ref)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		sh, used, err := BuildSharded(context.Background(), tab, workers, spec, Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snapBytes(t, sh); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: sharded build differs from sequential build", workers)
		}
		if used != workers {
			t.Errorf("workers=%d: used %d workers", workers, used)
		}
		if _, ok := sh.(*DenseArray); !ok {
			t.Errorf("workers=%d: sharded build returned %T, want the merged *DenseArray", workers, sh)
		}
	}
}

// TestShardedClampsWorkersToRows: more workers than rows degrades to one
// worker per row, never an empty panic or a lost tuple.
func TestShardedClampsWorkersToRows(t *testing.T) {
	tab := testTable(t, 3)
	spec := testSpec(t)
	sh, used, err := BuildSharded(context.Background(), tab, 8, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if used != 3 {
		t.Errorf("used %d workers, want clamped to 3 rows", used)
	}
	if sh.N() != 3 {
		t.Errorf("N() = %d, want 3", sh.N())
	}
	ref, err := Build(context.Background(), tab, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, sh), snapBytes(t, ref)) {
		t.Error("clamped sharded build differs from sequential build")
	}
}

// TestBuildShardedUsesShards: a shardable source split four ways is
// counted by four workers, and every tuple lands in the merged backend.
func TestBuildShardedUsesShards(t *testing.T) {
	b, used, err := BuildSharded(context.Background(), testTable(t, 100), 4, testSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if used != 4 {
		t.Errorf("used %d workers, want 4", used)
	}
	if b.N() != 100 {
		t.Errorf("N() = %d, want 100", b.N())
	}
}

// TestBuildShardedCancel: a pre-canceled context aborts the build.
func TestBuildShardedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BuildSharded(ctx, testTable(t, 50_000), 4, testSpec(t), Options{}); err == nil {
		t.Fatal("canceled sharded build returned nil error")
	}
}

// TestShardedAddDelegates: the backend a sharded build returns is
// mutable whatever its kind, and an Add lands in the merged counts.
func TestShardedAddDelegates(t *testing.T) {
	for _, kind := range []Kind{Dense, Sparse} {
		sh, _, err := BuildSharded(context.Background(), testTable(t, 10), 2, testSpec(t), Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		a, ok := sh.(Adder)
		if !ok {
			t.Fatalf("%v: sharded backend %T is not an Adder", kind, sh)
		}
		before := a.Count(0, 0, 0)
		a.Add(0, 0, 0)
		if got := a.Count(0, 0, 0); got != before+1 {
			t.Errorf("%v: Count after Add = %d, want %d", kind, got, before+1)
		}
		if sh.Stats().MemBytes <= 0 {
			t.Errorf("%v: Stats().MemBytes <= 0", kind)
		}
	}
}
