package inject

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ranger/internal/core"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/ops"
	"ranger/internal/tensor"
)

// dryRunFaultSpace is the executor oracle for Campaign.faultSpace: it
// runs the graph once through the legacy executor and records every
// corruptible node the hook sees, in execution order, with the element
// count of the output it actually produced.
func dryRunFaultSpace(m *models.Model, feeds graph.Feeds, extraExclude, targetNodes []string) (*FaultSpace, error) {
	corruptible := corruptibleFilter(m, extraExclude, targetNodes)
	fs := &FaultSpace{}
	e := graph.Executor{Hook: func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		if !corruptible(n) {
			return nil
		}
		fs.nodes = append(fs.nodes, n.Name())
		fs.sizes = append(fs.sizes, out.Size())
		fs.total += int64(out.Size())
		return nil
	}}
	if _, err := e.Run(m.Graph, feeds, m.Output); err != nil {
		return nil, fmt.Errorf("inject: dry run: %w", err)
	}
	if fs.total == 0 {
		return nil, fmt.Errorf("inject: empty fault space for %s", m.Name)
	}
	return fs, nil
}

// planFaultSpace returns the fault space a campaign with the given
// restrictions samples from for feeds: sized from its compiled plan.
func planFaultSpace(t *testing.T, m *models.Model, feeds graph.Feeds, extraExclude, targetNodes []string) *FaultSpace {
	t.Helper()
	c := &Campaign{Model: m, Exclude: extraExclude, TargetNodes: targetNodes}
	plan, err := c.compile()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.faultSpace(plan, feeds)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestPlanFaultSpaceMatchesExecutorDryRun pins the plan-sized fault
// space to the executor dry run it replaced, node for node and size for
// size, on every zoo architecture (plain and Ranger-protected), under
// the full, late-third and single-node target sets, with and without an
// extra exclusion, on both the campaign plan (corruptible nodes
// observed) and the detector plan (every node observed). Only shapes
// matter, so untrained models and a zero input suffice.
func TestPlanFaultSpaceMatchesExecutorDryRun(t *testing.T) {
	for _, name := range models.Names() {
		base, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		bounds := core.Bounds{}
		for _, typ := range ops.ActivationTypes() {
			for _, n := range base.Graph.NamesByType(typ) {
				bounds[n] = core.Bound{Low: -1, High: 10}
			}
		}
		protected, _, err := core.ProtectModel(base, bounds, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		feeds := graph.Feeds{base.Input: tensor.New(append([]int{1}, base.InputShape...)...)}
		for _, variant := range []struct {
			name string
			m    *models.Model
		}{{"plain", base}, {"ranger", protected}} {
			m := variant.m
			nodes := CorruptibleNodes(m, nil, nil)
			mid := len(nodes) / 2
			// Excluding the last corruptible node shrinks the full and
			// late spaces and leaves the single-node space alone.
			last := nodes[len(nodes)-1]
			for _, target := range []struct {
				name  string
				nodes []string
			}{
				{"all", nil},
				{"late", nodes[len(nodes)-len(nodes)/3:]},
				{"single", nodes[mid : mid+1]},
			} {
				for _, exclude := range [][]string{nil, {last}} {
					want, err := dryRunFaultSpace(m, feeds, exclude, target.nodes)
					if err != nil {
						t.Fatal(err)
					}
					c := &Campaign{Model: m, Exclude: exclude, TargetNodes: target.nodes}
					observe, err := c.compile()
					if err != nil {
						t.Fatal(err)
					}
					dc := *c
					dc.Detector = silentDetector{}
					observeAll, err := dc.compile()
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range []struct {
						name string
						plan *graph.Plan
					}{{"observe", observe}, {"observe-all", observeAll}} {
						got, err := c.faultSpace(p.plan, feeds)
						if err != nil {
							t.Fatalf("%s/%s/%s exclude=%v %s plan: %v", name, variant.name, target.name, exclude, p.name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s/%s exclude=%v %s plan: fault space\n%+v\nwant executor dry run\n%+v",
								name, variant.name, target.name, exclude, p.name, got, want)
						}
					}
				}
			}
		}
	}
}

// shapelessOp is a custom operator without InferShape: plans evaluate it
// through the Eval fallback and cannot size its output in advance.
type shapelessOp struct{}

func (shapelessOp) Type() string { return "Shapeless" }
func (shapelessOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Scale(2), nil
}

// TestFaultSpaceRejectsShapelessNode covers the one way a corruptible
// node can lack an inferred shape: a campaign over it fails up front
// with an error naming the node, instead of sampling a mis-sized space.
func TestFaultSpaceRejectsShapelessNode(t *testing.T) {
	g := graph.New()
	in := g.MustAdd("x", &graph.Placeholder{Shape: []int{0, 4}})
	g.MustAdd("blob", shapelessOp{}, in)
	m := &models.Model{Name: "shapeless", Kind: models.Classifier, Graph: g, Input: "x", Output: "blob"}
	c := &Campaign{Model: m, Trials: 1, Seed: 1}
	_, err := c.Run(context.Background(), []graph.Feeds{{"x": tensor.New(1, 4)}})
	if err == nil || !strings.Contains(err.Error(), `"blob"`) {
		t.Fatalf("campaign over a shapeless node: err = %v, want an error naming %q", err, "blob")
	}
}
