package graph

import (
	"slices"

	"ranger/internal/parallel"

	"ranger/internal/tensor"
)

// DefaultBatchLanes is how many single-sample feeds RunBatch stacks
// into one lane-batched plan execution: enough lanes to amortize the
// packed dense GEMM's weight-panel traffic, few enough that the batched
// activations of the deepest zoo models stay cache-friendly.
const DefaultBatchLanes = 8

// RunBatch evaluates the graph once per feed set, sharding the feeds
// across workers (0 means the process default). The graph is compiled
// once into a fused execution plan shared by every worker; each worker
// owns a private PlanState, so buffers are reused within a worker and
// never shared between workers. Runs of up to DefaultBatchLanes
// consecutive same-shaped single-sample feeds additionally stack into
// one lane-batched execution (see RunBatchLanes). Fetched outputs are
// cloned out of the states and safe to retain. outs[i][j] is fetch j of
// feeds[i].
//
// Feeds must be independent (the usual case: one sample or minibatch
// each) and the graph's operators must be safe for concurrent evaluation,
// which holds for every op in this repository. Results are identical at
// every worker count and bit-identical to Executor.Run. The first error
// by feed index is returned.
func RunBatch(g *Graph, feeds []Feeds, workers int, fetches ...string) ([][]*tensor.Tensor, error) {
	return RunBatchLanes(g, feeds, workers, DefaultBatchLanes, fetches...)
}

// RunBatchLanes is RunBatch with an explicit lane width: within a
// worker's shard, up to lanes consecutive feeds whose tensors share
// shapes with a leading batch dimension of 1 stack along that axis and
// execute as one lane-batched pass — the kernels are lane-wise with
// unchanged per-lane reduction order, so lane l of the stacked run is
// bit-identical to running feeds[l] alone. Each worker's transient
// buffers grow up to lanes× the single-sample plan state; lanes <= 1
// disables stacking. Feeds that cannot stack (multi-sample, mixed
// shapes) or whose stacked execution fails for any reason fall back to
// per-feed runs, preserving per-feed error attribution.
func RunBatchLanes(g *Graph, feeds []Feeds, workers, lanes int, fetches ...string) ([][]*tensor.Tensor, error) {
	plan, err := Compile(g, fetches...)
	if err != nil {
		return nil, err
	}
	return RunPlanBatch(plan, feeds, workers, lanes)
}

// RunPlanBatch runs an already-compiled plan over independent feed
// sets with lane stacking, under the RunBatchLanes contract.
func RunPlanBatch(plan *Plan, feeds []Feeds, workers, lanes int) ([][]*tensor.Tensor, error) {
	outs := make([][]*tensor.Tensor, len(feeds))
	errs := make([]error, len(feeds))
	parallel.Shard(parallel.Resolve(workers), len(feeds), func(lo, hi int) {
		st := plan.NewState()
		runOne := func(i int) {
			res, err := plan.Run(st, feeds[i])
			if err != nil {
				errs[i] = err
				return
			}
			cloned := make([]*tensor.Tensor, len(res))
			for j, t := range res {
				cloned[j] = t.Clone()
			}
			outs[i] = cloned
		}
		for i := lo; i < hi; {
			j := laneRun(feeds, i, hi, lanes)
			if j-i > 1 {
				res, err := plan.Run(st, stackFeeds(feeds, i, j))
				if splitLanes(outs, res, err, i, j) {
					i = j
					continue
				}
			}
			for p := i; p < j; p++ {
				runOne(p)
			}
			i = j
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// RunQPlanBatch is RunPlanBatch over a quantized plan; QPlan.Run hands
// ownership of its dequantized fetches to the caller, so lane splitting
// and the per-feed path both retain outputs without cloning.
func RunQPlanBatch(qp *QPlan, feeds []Feeds, workers, lanes int) ([][]*tensor.Tensor, error) {
	outs := make([][]*tensor.Tensor, len(feeds))
	errs := make([]error, len(feeds))
	parallel.Shard(parallel.Resolve(workers), len(feeds), func(lo, hi int) {
		st := qp.NewState()
		runOne := func(i int) {
			res, err := qp.Run(st, feeds[i])
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res
		}
		for i := lo; i < hi; {
			j := laneRun(feeds, i, hi, lanes)
			if j-i > 1 {
				res, err := qp.Run(st, stackFeeds(feeds, i, j))
				if splitLanes(outs, res, err, i, j) {
					i = j
					continue
				}
			}
			for p := i; p < j; p++ {
				runOne(p)
			}
			i = j
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// laneRun returns the end of the stackable run starting at feed i: the
// largest j <= min(i+lanes, hi) such that feeds[i:j] all carry the same
// single-sample tensor shapes under the same names.
func laneRun(feeds []Feeds, i, hi, lanes int) int {
	if lanes <= 1 || !singleSample(feeds[i]) {
		return i + 1
	}
	j := i + 1
	for j-i < lanes && j < hi && sameLaneShapes(feeds[i], feeds[j]) {
		j++
	}
	return j
}

// singleSample reports whether every feed tensor has a leading batch
// dimension of 1.
func singleSample(f Feeds) bool {
	for _, t := range f {
		if t.Rank() == 0 || t.Dim(0) != 1 {
			return false
		}
	}
	return true
}

// sameLaneShapes reports whether b feeds exactly a's names with
// identical single-sample shapes.
func sameLaneShapes(a, b Feeds) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb, ok := b[name]
		if !ok || !slices.Equal(ta.Shape(), tb.Shape()) {
			return false
		}
	}
	return true
}

// stackFeeds concatenates feeds[lo:hi] lane-major along the leading
// batch axis: lane l of each stacked tensor is feeds[lo+l]'s data.
func stackFeeds(feeds []Feeds, lo, hi int) Feeds {
	b := hi - lo
	out := make(Feeds, len(feeds[lo]))
	for name, t := range feeds[lo] {
		shape := append([]int{b}, t.Shape()[1:]...)
		data := make([]float32, b*t.Size())
		for l := 0; l < b; l++ {
			copy(data[l*t.Size():], feeds[lo+l][name].Data())
		}
		out[name] = tensor.MustFromSlice(data, shape...)
	}
	return out
}

// splitLanes distributes a stacked run's fetches into per-feed output
// slots, cloning lane l of every fetch into a leading-dimension-1
// tensor. It reports false — leaving outs untouched — when the stacked
// run failed or some fetch does not carry the stacked leading axis, in
// which case the caller reruns the feeds one by one.
func splitLanes(outs [][]*tensor.Tensor, res []*tensor.Tensor, err error, lo, hi int) bool {
	if err != nil {
		return false
	}
	b := hi - lo
	for _, t := range res {
		if t.Rank() == 0 || t.Dim(0) != b {
			return false
		}
	}
	for l := 0; l < b; l++ {
		cloned := make([]*tensor.Tensor, len(res))
		for j, t := range res {
			size := t.Size() / b
			shape := append([]int{1}, t.Shape()[1:]...)
			lt := tensor.MustFromSlice(append([]float32(nil), t.Data()[l*size:(l+1)*size]...), shape...)
			cloned[j] = lt
		}
		outs[lo+l] = cloned
	}
	return true
}
