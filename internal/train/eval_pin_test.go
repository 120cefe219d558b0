package train

import (
	"math"
	"testing"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

// executorBatches runs m through the legacy Executor over the first n
// samples of the validation split in batches of batch, in order, and
// hands each batch's output and samples to fn.
func executorBatches(t *testing.T, m *models.Model, ds data.Dataset, n, batch int, fn func(out *tensor.Tensor, labels []int, targets []float32)) {
	t.Helper()
	var e graph.Executor
	for start := 0; start < n; start += batch {
		end := min(start+batch, n)
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, labels, targets := data.Batch(ds, data.Val, idx)
		outs, err := e.Run(m.Graph, graph.Feeds{m.Input: x}, m.Output)
		if err != nil {
			t.Fatal(err)
		}
		fn(outs[0], labels, targets)
	}
}

// TestEvalMetricsMatchExecutor pins the Table II metrics to the legacy
// Executor: TopKAccuracy (k = 1 and 5) and SteeringMetrics must equal,
// exactly, the same figures computed by a loop over the same batches
// through Executor.Run, on every zoo architecture, plain and
// Ranger-protected with bounds profiled on four training samples. The
// sample counts leave a short last batch. The models are the trained
// zoo's; -short uses untrained weights, which are deterministic per
// architecture seed but give many models one prediction for every input.
func TestEvalMetricsMatchExecutor(t *testing.T) {
	for _, name := range models.Names() {
		base, err := models.Build(name)
		if !testing.Short() {
			base, err = Default().Get(name)
		}
		if err != nil {
			t.Fatal(err)
		}
		ds, err := DatasetByName(base.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := core.ProfileModel(base, core.ProfileOptions{}, 4, func(i int) (graph.Feeds, error) {
			return graph.Feeds{base.Input: ds.Sample(data.Train, i).X}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		protected, _, err := core.ProtectModel(base, bounds, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*models.Model{base, protected} {
			ctxt := name
			if m == protected {
				ctxt += "/ranger"
			}
			switch m.Kind {
			case models.Classifier:
				const n = 40
				for _, k := range []int{1, 5} {
					got, err := TopKAccuracy(m, ds, data.Val, n, k)
					if err != nil {
						t.Fatal(err)
					}
					correct := 0
					executorBatches(t, m, ds, n, 16, func(out *tensor.Tensor, labels []int, _ []float32) {
						c := out.Dim(1)
						for i, label := range labels {
							row := tensor.MustFromSlice(out.Data()[i*c:(i+1)*c], c)
							for _, cand := range row.TopK(k) {
								if cand == label {
									correct++
									break
								}
							}
						}
					})
					if want := float64(correct) / n; got != want {
						t.Errorf("%s: top-%d accuracy %v, executor %v", ctxt, k, got, want)
					}
				}
			case models.Regressor:
				const n = 20
				rmse, avgDev, err := SteeringMetrics(m, ds, data.Val, n)
				if err != nil {
					t.Fatal(err)
				}
				var sqSum, absSum float64
				executorBatches(t, m, ds, n, 8, func(out *tensor.Tensor, _ []int, targets []float32) {
					var sq, abs float64
					for i, tgt := range targets {
						p, tg := float64(out.At(i, 0)), float64(tgt)
						if !m.OutputInDegrees {
							p, tg = data.RadiansToDegrees(p), data.RadiansToDegrees(tg)
						}
						d := p - tg
						sq += d * d
						abs += math.Abs(d)
					}
					sqSum += sq
					absSum += abs
				})
				if want := math.Sqrt(sqSum / n); rmse != want {
					t.Errorf("%s: rmse %v, executor %v", ctxt, rmse, want)
				}
				if want := absSum / n; avgDev != want {
					t.Errorf("%s: average deviation %v, executor %v", ctxt, avgDev, want)
				}
			default:
				t.Fatalf("%s: unknown model kind %v", ctxt, m.Kind)
			}
		}
	}
}
