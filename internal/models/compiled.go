package models

import (
	"fmt"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Compiled is a model bound to an immutable execution plan (fused
// kernels, static buffer assignment) plus a private buffer state: the
// compile-once/run-many inference surface. Run is not safe for
// concurrent use — it owns one state; RunBatch shards feeds across
// workers with per-worker states over the shared plan.
type Compiled struct {
	// Model is the compiled model (shared, not copied).
	Model *Model
	// Plan is the immutable execution plan fetching Model.Output. It is
	// safe to share across goroutines via graph.Plan.NewState.
	Plan *graph.Plan

	state *graph.PlanState
}

// Compile builds a fused execution plan for the model's inference path
// (input placeholder through Model.Output). Protection operators
// (RangerClip) fold into their producers' loops, so a protected model
// runs in nearly the same time as an unprotected one.
func (m *Model) Compile() (*Compiled, error) {
	return m.CompileWith(graph.CompileOptions{})
}

// CompileWith is Compile with explicit options (observation points,
// fusion off for measurement).
func (m *Model) CompileWith(opts graph.CompileOptions) (*Compiled, error) {
	plan, err := graph.CompileWith(m.Graph, opts, m.Output)
	if err != nil {
		return nil, fmt.Errorf("models: compile %s: %w", m.Name, err)
	}
	return &Compiled{Model: m, Plan: plan, state: plan.NewState()}, nil
}

// Run evaluates the compiled model on one feed set and returns a copy
// of the output tensor, safe to retain. Feeds are validated against the
// placeholder-declared shapes before any kernel runs.
func (c *Compiled) Run(feeds graph.Feeds) (*tensor.Tensor, error) {
	outs, err := c.Plan.Run(c.state, feeds)
	if err != nil {
		return nil, err
	}
	return outs[0].Clone(), nil
}

// RunBatch evaluates the compiled model once per independent feed set,
// sharded across workers (0 means the process default). out[i] is the
// model output for feeds[i]; results are identical at every worker
// count.
func (c *Compiled) RunBatch(feeds []graph.Feeds, workers int) ([]*tensor.Tensor, error) {
	batched, err := graph.RunPlanBatch(c.Plan, feeds, workers)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(feeds))
	for i, res := range batched {
		outs[i] = res[0]
	}
	return outs, nil
}
