package graph

import (
	"ranger/internal/parallel"

	"ranger/internal/tensor"
)

// RunBatch evaluates the graph once per feed set, sharding the feeds
// across workers (0 means the process default). The graph is compiled
// once into a fused execution plan shared by every worker; each worker
// owns a private PlanState, so buffers are reused within a worker and
// never shared between workers. Fetched outputs are cloned out of the
// states and safe to retain. outs[i][j] is fetch j of feeds[i].
//
// Feeds must be independent (the usual case: one sample or minibatch
// each) and the graph's operators must be safe for concurrent evaluation,
// which holds for every op in this repository. Results are identical at
// every worker count and bit-identical to Executor.Run. The first error
// by feed index is returned.
func RunBatch(g *Graph, feeds []Feeds, workers int, fetches ...string) ([][]*tensor.Tensor, error) {
	plan, err := Compile(g, fetches...)
	if err != nil {
		return nil, err
	}
	return RunPlanBatch(plan, feeds, workers)
}

// RunPlanBatch runs an already-compiled plan over independent feed
// sets under the RunBatch contract: one plan.Run per feed, with one
// PlanState per worker.
func RunPlanBatch(plan *Plan, feeds []Feeds, workers int) ([][]*tensor.Tensor, error) {
	return shardFeeds(feeds, workers, plan.NewState, func(st *PlanState, f Feeds) ([]*tensor.Tensor, error) {
		res, err := plan.Run(st, f)
		if err != nil {
			return nil, err
		}
		cloned := make([]*tensor.Tensor, len(res))
		for j, t := range res {
			cloned[j] = t.Clone()
		}
		return cloned, nil
	})
}

// RunQPlanBatch is RunPlanBatch over a quantized plan; QPlan.Run hands
// ownership of its dequantized fetches to the caller, so outputs are
// retained without cloning.
func RunQPlanBatch(qp *QPlan, feeds []Feeds, workers int) ([][]*tensor.Tensor, error) {
	return shardFeeds(feeds, workers, qp.NewState, qp.Run)
}

// shardFeeds runs feeds across workers, one run per feed, with one
// newState state per worker. It returns the outputs by feed index, or
// the first error by feed index.
func shardFeeds[S any](feeds []Feeds, workers int, newState func() S, run func(S, Feeds) ([]*tensor.Tensor, error)) ([][]*tensor.Tensor, error) {
	outs := make([][]*tensor.Tensor, len(feeds))
	errs := make([]error, len(feeds))
	parallel.Shard(parallel.Resolve(workers), len(feeds), func(lo, hi int) {
		st := newState()
		for i := lo; i < hi; i++ {
			outs[i], errs[i] = run(st, feeds[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}
