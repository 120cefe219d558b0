package models

import (
	"fmt"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Quantized is a model bound to an int8 execution plan plus a private
// buffer state: the deployed post-training-quantized inference surface.
// Feeds stay float32 — the plan quantizes them at the input boundary and
// dequantizes the fetch on the way out. Run is not safe for concurrent
// use; RunBatch shards feeds across workers with per-worker states over
// the shared plan.
type Quantized struct {
	// Model is the quantized model (shared, not copied).
	Model *Model
	// Plan is the immutable int8 plan fetching Model.Output. It is safe
	// to share across goroutines via graph.QPlan.NewState.
	Plan *graph.QPlan
	// Calibration holds the value ranges the plan was quantized with.
	Calibration graph.Calibration

	state *graph.QPlanState
}

// Quantize compiles the model's fused inference plan and rewrites it to
// int8 kernels using the calibrated value ranges (core.CalibrateModel).
// A Ranger-protected model quantizes with its restriction bounds folded
// into the kernels' saturating clamps, so protection is free in the
// quantized domain.
func (m *Model) Quantize(calib graph.Calibration) (*Quantized, error) {
	return m.QuantizeWith(graph.CompileOptions{}, calib)
}

// QuantizeWith is Quantize with explicit compile options (observation
// points keep nodes materialized for int8 fault injection).
func (m *Model) QuantizeWith(opts graph.CompileOptions, calib graph.Calibration) (*Quantized, error) {
	plan, err := graph.CompileWith(m.Graph, opts, m.Output)
	if err != nil {
		return nil, fmt.Errorf("models: compile %s: %w", m.Name, err)
	}
	qp, err := graph.Quantize(plan, calib)
	if err != nil {
		return nil, fmt.Errorf("models: quantize %s: %w", m.Name, err)
	}
	return &Quantized{Model: m, Plan: qp, Calibration: calib, state: qp.NewState()}, nil
}

// Run evaluates the quantized model on one feed set and returns the
// dequantized output tensor (freshly allocated, safe to retain).
func (q *Quantized) Run(feeds graph.Feeds) (*tensor.Tensor, error) {
	outs, err := q.Plan.Run(q.state, feeds)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunBatch evaluates the quantized model over independent feed sets,
// sharded across workers (0 means the process default) with runs of up
// to graph.BatchLanes same-shaped single-sample feeds stacked
// into one lane-batched int8 pass. out[i] is the model output for
// feeds[i]; integer arithmetic makes results identical at every worker
// count, stacked or not.
func (q *Quantized) RunBatch(feeds []graph.Feeds, workers int) ([]*tensor.Tensor, error) {
	batched, err := graph.RunQPlanBatch(q.Plan, feeds, workers)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(feeds))
	for i, res := range batched {
		outs[i] = res[0]
	}
	return outs, nil
}
