package counts

import (
	"context"
	"sync"

	"arcs/internal/dataset"
)

// BuildSharded is the parallel build strategy: it cuts src into up to
// workers disjoint range shards, fills a private backend per shard
// concurrently with no shared mutation, merges the shards in shard
// order and returns the merged backend together with the worker count
// it used (workers clamped to the source size). Because count merging
// is saturating addition — associative and commutative — the result is
// byte-identical to a sequential Build whichever backend kind the
// workers filled. The kind follows the same Options policy as Build,
// except that Auto selects against each worker's share of the budget.
// A canceled context stops every worker and returns the cancellation
// error.
func BuildSharded(ctx context.Context, src dataset.Sharder, workers int, spec Spec, opts Options) (Backend, int, error) {
	shards, workers, err := makeShards(src, workers)
	if err != nil {
		return nil, 0, err
	}
	kind := resolveKind(spec, opts, workers)
	parts := make([]builder, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = newFilled(ctx, shards[i], spec, kind, opts)
		}(i)
	}
	wg.Wait()
	// First error by shard index, so the reported failure is
	// deterministic when several shards hit the same bad data.
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	for _, p := range parts[1:] {
		transfer(parts[0], p)
	}
	return parts[0], workers, nil
}

// makeShards clamps the worker count to the source size and cuts src
// into that many range shards.
func makeShards(src dataset.Sharder, workers int) ([]dataset.Source, int, error) {
	if ss, ok := src.(dataset.SizedSource); ok {
		workers = min(workers, ss.Len())
	}
	workers = max(workers, 1)
	shards := make([]dataset.Source, workers)
	for i := range shards {
		sh, err := src.Shard(i, workers)
		if err != nil {
			return nil, 0, err
		}
		shards[i] = sh
	}
	return shards, workers, nil
}
