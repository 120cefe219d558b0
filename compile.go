// Facade: compiled execution plans.
//
// Compile turns a graph (or a Model, via Model.Compile) into an
// immutable Plan: a topologically-ordered schedule restricted to the
// fetch ancestors, with producer→consumer chains of elementwise
// operators (MatMul/Conv2D + BiasAdd + activation + RangerClip) fused
// into single kernels and output buffers statically assigned from
// liveness analysis. Compile once, then run many times — campaigns,
// batch evaluation, and the experiment harness all execute through
// plans, and fused execution is bit-identical to the per-call Executor.
package ranger

import (
	"ranger/internal/graph"
	"ranger/internal/models"
)

// Plan is an immutable compiled execution schedule: fused kernels plus
// a static, liveness-derived buffer assignment. Safe for concurrent use
// with per-worker PlanStates.
type Plan = graph.Plan

// PlanState is the per-worker mutable buffer state of one Plan.
type PlanState = graph.PlanState

// CompileOptions configure Compile: observation points (which disable
// fusion for the named nodes so hooks see identical intermediate
// values) and NoFuse, which compiles the unfused reference plan that
// the plan goldens check fused plans against bit for bit.
type CompileOptions = graph.CompileOptions

// CompiledModel is a model bound to a plan and a private buffer state —
// the compile-once/run-many inference surface returned by
// Model.Compile.
type CompiledModel = models.Compiled

// ErrFeedShape reports a feed tensor whose shape contradicts the
// placeholder's declared shape; Run and Compile return it (wrapped)
// before any kernel executes.
var ErrFeedShape = graph.ErrFeedShape

// CompileGraph compiles a graph into a fused execution plan for the
// given fetches.
func CompileGraph(g *Graph, fetches ...string) (*Plan, error) {
	return graph.Compile(g, fetches...)
}

// CompileGraphWith is CompileGraph with explicit options.
func CompileGraphWith(g *Graph, opts CompileOptions, fetches ...string) (*Plan, error) {
	return graph.CompileWith(g, opts, fetches...)
}
