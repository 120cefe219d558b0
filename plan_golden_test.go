// Golden equivalence suite for compiled execution plans: every zoo
// architecture, protected and unprotected, must produce bit-identical
// fetch outputs under Plan.Run (fused and unfused, per feed and with the
// feeds stacked into one batch) and graph.RunBatch (1/2/N workers)
// compared to the legacy per-call Executor.
package ranger_test

import (
	"math"
	"testing"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/tensor"
	"ranger/internal/train"
)

// goldenModels returns the architectures under test: the full zoo
// normally, a topology-covering subset in -short mode (conv/pool
// stacks, fire-module concats, residual adds, both steering heads).
func goldenModels(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		return []string{"lenet", "squeezenet", "resnet18", "dave", "comma"}
	}
	return models.Names()
}

// buildVariants returns the unprotected model and its Ranger-protected
// duplicate (bounds profiled from two training samples; untrained
// weights are deterministic per architecture seed, which is all
// bit-equivalence needs).
func buildVariants(t *testing.T, name string) (*models.Model, *models.Model, []graph.Feeds) {
	t.Helper()
	m, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	feeds := []graph.Feeds{
		{m.Input: ds.Sample(data.Train, 0).X},
		{m.Input: ds.Sample(data.Train, 1).X},
	}
	bounds, err := core.ProfileModel(m, core.ProfileOptions{}, len(feeds), func(i int) (graph.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pm, _, err := core.ProtectModel(m, bounds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, pm, feeds
}

func bitsEqual(t *testing.T, ctxt string, want, got *tensor.Tensor) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s: size %d != %d", ctxt, len(gd), len(wd))
	}
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s: element %d: %g != %g", ctxt, i, gd[i], wd[i])
		}
	}
}

// stackLanes concatenates single-sample feeds along the leading batch
// axis into one [len(feeds), ...] feed whose lane l is feeds[l].
func stackLanes(feeds []graph.Feeds) graph.Feeds {
	out := graph.Feeds{}
	for name, t0 := range feeds[0] {
		var data []float32
		for _, f := range feeds {
			data = append(data, f[name].Data()...)
		}
		out[name] = tensor.MustFromSlice(data, append([]int{len(feeds)}, t0.Shape()[1:]...)...)
	}
	return out
}

// lanesEqual checks that got is a [len(want), ...] output whose lane l
// is bit-identical to want[l].
func lanesEqual(t *testing.T, ctxt string, want [][]float32, got *tensor.Tensor) {
	t.Helper()
	if got.Rank() == 0 || got.Dim(0) != len(want) {
		t.Fatalf("%s: shape %v, want %d lanes", ctxt, got.Shape(), len(want))
	}
	size := got.Size() / len(want)
	for l, w := range want {
		bitsEqual(t, ctxt+" lane "+itoa(l), tensor.MustFromSlice(w, len(w)),
			tensor.MustFromSlice(got.Data()[l*size:(l+1)*size], size))
	}
}

func TestGoldenPlanMatchesExecutorAcrossZoo(t *testing.T) {
	for _, name := range goldenModels(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			unprot, prot, feeds := buildVariants(t, name)
			for _, m := range []*models.Model{unprot, prot} {
				var e graph.Executor
				fused, err := graph.Compile(m.Graph, m.Output)
				if err != nil {
					t.Fatal(err)
				}
				unfused, err := graph.CompileWith(m.Graph, graph.CompileOptions{NoFuse: true}, m.Output)
				if err != nil {
					t.Fatal(err)
				}
				fusedSt, unfusedSt := fused.NewState(), unfused.NewState()
				var legacyOuts []*tensor.Tensor
				var legacyData [][]float32
				for fi, feed := range feeds {
					legacy, err := e.Run(m.Graph, feed, m.Output)
					if err != nil {
						t.Fatal(err)
					}
					legacyOuts = append(legacyOuts, legacy[0])
					legacyData = append(legacyData, legacy[0].Data())
					got, err := fused.Run(fusedSt, feed)
					if err != nil {
						t.Fatal(err)
					}
					bitsEqual(t, m.Name+" fused plan feed "+itoa(fi), legacy[0], got[0])
					got, err = unfused.Run(unfusedSt, feed)
					if err != nil {
						t.Fatal(err)
					}
					bitsEqual(t, m.Name+" unfused plan feed "+itoa(fi), legacy[0], got[0])
				}
				// The feeds stacked into one [B, ...] feed: each lane of the
				// fused plan's output equals that feed's own run.
				stacked, err := fused.Run(fusedSt, stackLanes(feeds))
				if err != nil {
					t.Fatal(err)
				}
				lanesEqual(t, m.Name+" stacked fused plan", legacyData, stacked[0])
				// RunBatch (plan-backed) at 1, 2, and default workers.
				for _, workers := range []int{1, 2, 0} {
					outs, err := graph.RunBatch(m.Graph, feeds, workers, m.Output)
					if err != nil {
						t.Fatal(err)
					}
					for fi := range feeds {
						bitsEqual(t, m.Name+" RunBatch", legacyOuts[fi], outs[fi][0])
					}
				}
				// The protected model's fused plan must actually fuse its
				// clips; otherwise the overhead claim is vacuous.
				if m == prot && fused.FusedNodes() == 0 {
					t.Fatalf("%s: protected plan folded no nodes", m.Name)
				}
			}
		})
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestGoldenCompiledModelFacade pins the Model.Compile facade path:
// Compiled.Run and Compiled.RunBatch agree with the legacy executor.
func TestGoldenCompiledModelFacade(t *testing.T) {
	_, prot, feeds := buildVariants(t, "lenet")
	cm, err := prot.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var e graph.Executor
	for _, feed := range feeds {
		legacy, err := e.Run(prot.Graph, feed, prot.Output)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cm.Run(feed)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "Compiled.Run", legacy[0], got)
	}
	outs, err := cm.RunBatch(feeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for fi, feed := range feeds {
		legacy, err := e.Run(prot.Graph, feed, prot.Output)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "Compiled.RunBatch", legacy[0], outs[fi])
	}
}
