// Package train provides the training substrate the paper's pipeline
// needs before Ranger can be applied: minibatch SGD with momentum and
// gradient clipping over the graph autodiff, evaluation metrics (top-k
// accuracy for classifiers, RMSE and average deviation per frame for the
// steering models, as in §V-A), and a model zoo that trains each benchmark
// once and caches its weights on disk.
package train

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"ranger/internal/data"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// Optimizer selects the update rule.
type Optimizer string

// Supported optimizers.
const (
	SGD  Optimizer = "sgd"  // momentum SGD (default)
	Adam Optimizer = "adam" // Adam with beta1=0.9, beta2=0.999
)

// Config controls one training run.
type Config struct {
	Epochs       int
	BatchSize    int
	LR           float64
	Momentum     float64   // SGD momentum coefficient
	Optimizer    Optimizer // empty means SGD
	ClipNorm     float64   // global gradient-norm clip; 0 disables
	MaxPerEpoch  int       // cap on samples per epoch; 0 means full split
	Seed         int64
	LRDecay      float64 // multiplicative per-epoch decay; 0 means none
	ReportEvery  int     // batches between progress callbacks; 0 disables
	OnProgress   func(epoch, batch int, loss float64)
	WeightDecay  float64 // L2 regularization coefficient; 0 disables
	InputIndices []int   // explicit sample indices; nil means 0..MaxPerEpoch
}

// DefaultConfig returns a configuration that trains the scaled benchmarks
// to high accuracy on the synthetic datasets in seconds.
func DefaultConfig() Config {
	return Config{
		Epochs:    3,
		BatchSize: 16,
		LR:        0.05,
		Momentum:  0.9,
		ClipNorm:  5,
		Seed:      7,
	}
}

// Train optimizes the model's variables in place on the dataset's training
// split and returns the final epoch's mean loss.
func Train(m *models.Model, ds data.Dataset, cfg Config) (float64, error) {
	if cfg.BatchSize <= 0 {
		return 0, fmt.Errorf("train: batch size %d", cfg.BatchSize)
	}
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("train: epochs %d", cfg.Epochs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := ds.Len(data.Train)
	if cfg.MaxPerEpoch > 0 && cfg.MaxPerEpoch < n {
		n = cfg.MaxPerEpoch
	}
	indices := cfg.InputIndices
	if indices == nil {
		indices = make([]int, n)
		for i := range indices {
			indices[i] = i
		}
	}
	vars := m.Graph.Variables()
	velocity := make(map[string]*tensor.Tensor, len(vars))
	adamM := make(map[string]*tensor.Tensor, len(vars))
	adamV := make(map[string]*tensor.Tensor, len(vars))
	for _, v := range vars {
		shape := v.Op().(*graph.Variable).Value.Shape()
		velocity[v.Name()] = tensor.New(shape...)
		if cfg.Optimizer == Adam {
			adamM[v.Name()] = tensor.New(shape...)
			adamV[v.Name()] = tensor.New(shape...)
		}
	}
	step := 0
	var e graph.Executor
	lr := cfg.LR
	var lastEpochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(indices), func(i, j int) { indices[i], indices[j] = indices[j], indices[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < len(indices); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(indices) {
				end = len(indices)
			}
			x, labels, targets := data.Batch(ds, data.Train, indices[start:end])
			feeds := graph.Feeds{m.Input: x}
			if m.Kind == models.Classifier {
				feeds[m.Labels] = data.OneHot(labels, m.NumClasses)
			} else {
				feeds[m.Labels] = data.TargetTensor(targets)
			}
			cache, err := e.RunAll(m.Graph, feeds)
			if err != nil {
				return 0, fmt.Errorf("train forward: %w", err)
			}
			grads, err := e.Backward(m.Graph, cache, m.Loss)
			if err != nil {
				return 0, fmt.Errorf("train backward: %w", err)
			}
			clipGrads(grads, cfg.ClipNorm)
			step++
			for _, v := range vars {
				g, ok := grads[v.Name()]
				if !ok {
					continue
				}
				w := v.Op().(*graph.Variable).Value
				if cfg.WeightDecay > 0 {
					if err := g.AxpyInPlace(float32(cfg.WeightDecay), w); err != nil {
						return 0, err
					}
				}
				if cfg.Optimizer == Adam {
					adamUpdate(w, g, adamM[v.Name()], adamV[v.Name()], lr, step)
					continue
				}
				vel := velocity[v.Name()]
				for i := range vel.Data() {
					vel.Data()[i] = float32(cfg.Momentum)*vel.Data()[i] - float32(lr)*g.Data()[i]
					w.Data()[i] += vel.Data()[i]
				}
			}
			lossNode, _ := m.Graph.Node(m.Loss)
			loss := float64(cache[lossNode.ID()].Data()[0])
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return 0, fmt.Errorf("train: loss diverged (NaN/Inf) at epoch %d", epoch)
			}
			epochLoss += loss
			batches++
			if cfg.ReportEvery > 0 && cfg.OnProgress != nil && batches%cfg.ReportEvery == 0 {
				cfg.OnProgress(epoch, batches, loss)
			}
		}
		lastEpochLoss = epochLoss / float64(batches)
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return lastEpochLoss, nil
}

// adamUpdate applies one bias-corrected Adam step to w.
func adamUpdate(w, g, m, v *tensor.Tensor, lr float64, step int) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	wd, gd, md, vd := w.Data(), g.Data(), m.Data(), v.Data()
	for i := range wd {
		gi := float64(gd[i])
		mi := beta1*float64(md[i]) + (1-beta1)*gi
		vi := beta2*float64(vd[i]) + (1-beta2)*gi*gi
		md[i], vd[i] = float32(mi), float32(vi)
		wd[i] -= float32(lr * (mi / c1) / (math.Sqrt(vi/c2) + eps))
	}
}

// clipGrads rescales all gradients so their global L2 norm is at most c.
func clipGrads(grads map[string]*tensor.Tensor, c float64) {
	if c <= 0 {
		return
	}
	var sq float64
	for _, g := range grads {
		for _, v := range g.Data() {
			sq += float64(v) * float64(v)
		}
	}
	norm := math.Sqrt(sq)
	if norm <= c {
		return
	}
	scale := float32(c / norm)
	for _, g := range grads {
		for i := range g.Data() {
			g.Data()[i] *= scale
		}
	}
}

// evalBatches runs the model over the first n samples of a split in
// batches of batch, sharded over the worker pool, and hands fn each
// batch's output with its first sample index, labels and targets. The
// model compiles once into a Plan; each worker builds its batches and
// runs them on its own PlanState, so buffers are reused batch to batch
// and workers stay independent. Any error is folded by lowest batch
// index.
func evalBatches(m *models.Model, ds data.Dataset, split data.Split, n, batch int, fn func(start int, out *tensor.Tensor, labels []int, targets []float32) error) error {
	plan, err := graph.Compile(m.Graph, m.Output)
	if err != nil {
		return err
	}
	batches := (n + batch - 1) / batch
	errs := make([]error, batches)
	parallel.Shard(parallel.Workers(), batches, func(lo, hi int) {
		st := plan.NewState()
		for bi := lo; bi < hi; bi++ {
			start := bi * batch
			idx := make([]int, min(start+batch, n)-start)
			for i := range idx {
				idx[i] = start + i
			}
			x, labels, targets := data.Batch(ds, split, idx)
			outs, err := plan.Run(st, graph.Feeds{m.Input: x})
			if err == nil {
				err = fn(start, outs[0], labels, targets)
			}
			errs[bi] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TopKAccuracy evaluates the model over the first n samples of a split
// and returns the fraction whose true label is among the top-k logits.
// Batches evaluate concurrently on the worker pool; the count reduction
// is order-independent, so results match the sequential path exactly.
func TopKAccuracy(m *models.Model, ds data.Dataset, split data.Split, n, k int) (float64, error) {
	if m.Kind != models.Classifier {
		return 0, fmt.Errorf("train: top-k accuracy on non-classifier %s", m.Name)
	}
	if n > ds.Len(split) {
		n = ds.Len(split)
	}
	if n <= 0 {
		return 0, nil
	}
	var correct atomic.Int64
	err := evalBatches(m, ds, split, n, 16, func(_ int, logits *tensor.Tensor, labels []int, _ []float32) error {
		for i, label := range labels {
			row, err := rowOf(logits, i)
			if err != nil {
				return err
			}
			for _, cand := range row.TopK(k) {
				if cand == label {
					correct.Add(1)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(correct.Load()) / float64(n), nil
}

// SteeringMetrics evaluates a regression model over the first n samples of
// a split and returns RMSE and average absolute deviation per frame, both
// in degrees (radian-output models are converted), matching the metrics
// the paper reports for the AV models.
func SteeringMetrics(m *models.Model, ds data.Dataset, split data.Split, n int) (rmse, avgDev float64, err error) {
	if m.Kind != models.Regressor {
		return 0, 0, fmt.Errorf("train: steering metrics on non-regressor %s", m.Name)
	}
	if n > ds.Len(split) {
		n = ds.Len(split)
	}
	if n <= 0 {
		return 0, 0, nil
	}
	const batch = 8
	batches := (n + batch - 1) / batch
	// Per-batch partial sums, reduced in batch order below so the float64
	// accumulation is identical at every worker count.
	sq := make([]float64, batches)
	abs := make([]float64, batches)
	err = evalBatches(m, ds, split, n, batch, func(start int, pred *tensor.Tensor, _ []int, targets []float32) error {
		bi := start / batch
		for i := range targets {
			p := float64(pred.At(i, 0))
			tgt := float64(targets[i])
			if !m.OutputInDegrees {
				p = data.RadiansToDegrees(p)
				tgt = data.RadiansToDegrees(tgt)
			}
			d := p - tgt
			sq[bi] += d * d
			abs[bi] += math.Abs(d)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var sqSum, absSum float64
	for bi := 0; bi < batches; bi++ {
		sqSum += sq[bi]
		absSum += abs[bi]
	}
	rmse = math.Sqrt(sqSum / float64(n))
	avgDev = absSum / float64(n)
	return rmse, avgDev, nil
}

// rowOf slices row i of a rank-2 tensor into a rank-1 tensor view-copy.
func rowOf(t *tensor.Tensor, i int) (*tensor.Tensor, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("train: rowOf rank %d", t.Rank())
	}
	c := t.Dim(1)
	return tensor.FromSlice(t.Data()[i*c:(i+1)*c], c)
}
