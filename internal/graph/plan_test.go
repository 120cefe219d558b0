package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/tensor"
)

// Test ops, local to the graph package so plan tests need no import of
// internal/ops: a planned+fusable relu-like op, a planned square op, and
// a plain (non-planned) negate op.

type testRelu struct{}

func (testRelu) Type() string { return "TestRelu" }
func (testRelu) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Map(reluF), nil
}

// reluF matches the fused StageRelu exactly (NaN and -0.0 map to +0).
func reluF(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}
func (testRelu) InferShape(ins [][]int) ([]int, error) { return ins[0], nil }
func (testRelu) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, _ Window) error {
	for i, v := range in[0].Data() {
		out.Data()[i] = reluF(v)
	}
	return nil
}
func (testRelu) FuseSpec() (tensor.Stage, bool) {
	return tensor.Stage{Kind: tensor.StageRelu}, true
}

type testSquare struct{}

func (testSquare) Type() string { return "TestSquare" }
func (testSquare) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Map(func(v float32) float32 { return v * v }), nil
}
func (testSquare) InferShape(ins [][]int) ([]int, error) { return ins[0], nil }
func (testSquare) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, _ Window) error {
	for i, v := range in[0].Data() {
		out.Data()[i] = v * v
	}
	return nil
}

type testNeg struct{}

func (testNeg) Type() string { return "TestNeg" }
func (testNeg) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Map(func(v float32) float32 { return -v }), nil
}

// chainGraph builds ph -> square -> relu -> square2 -> relu2 with a
// declared input shape.
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	ph := g.MustAdd("in", &Placeholder{Shape: []int{0, 4}})
	s1 := g.MustAdd("sq1", testSquare{}, ph)
	r1 := g.MustAdd("relu1", testRelu{}, s1)
	s2 := g.MustAdd("sq2", testSquare{}, r1)
	g.MustAdd("relu2", testRelu{}, s2)
	return g
}

func feed(vals ...float32) Feeds {
	return Feeds{"in": tensor.MustFromSlice(vals, 1, len(vals))}
}

func runBoth(t *testing.T, g *Graph, plan *Plan, feeds Feeds, fetches ...string) ([]*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	var e Executor
	want, err := e.Run(g, feeds, fetches...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(plan.NewState(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	return want, got
}

func assertSameTensors(t *testing.T, want, got []*tensor.Tensor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("fetch count %d != %d", len(got), len(want))
	}
	for i := range want {
		wd, gd := want[i].Data(), got[i].Data()
		if len(wd) != len(gd) {
			t.Fatalf("fetch %d: size %d != %d", i, len(gd), len(wd))
		}
		for j := range wd {
			if math.Float32bits(wd[j]) != math.Float32bits(gd[j]) {
				t.Fatalf("fetch %d element %d: plan %g != executor %g", i, j, gd[j], wd[j])
			}
		}
	}
}

func TestPlanFusesElementwiseChain(t *testing.T) {
	g := chainGraph(t)
	plan, err := Compile(g, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	// relu1 folds into sq1's step and relu2 into sq2's: 3 steps (ph, fused
	// sq1+relu1, fused sq2+relu2), 2 folded nodes.
	if plan.Steps() != 3 || plan.FusedNodes() != 2 {
		t.Fatalf("steps=%d fused=%d, want 3 steps 2 fused", plan.Steps(), plan.FusedNodes())
	}
	want, got := runBoth(t, g, plan, feed(-2, -1, 1, 3), "relu2")
	assertSameTensors(t, want, got)
}

func TestPlanObservationBlocksFusionAndHooksFire(t *testing.T) {
	g := chainGraph(t)
	// Observing sq1 keeps its own value materialized: relu1 cannot fold
	// into it (that would hide sq1's output from the hook). relu2 still
	// folds into sq2.
	plan, err := CompileWith(g, CompileOptions{Observe: []string{"sq1"}}, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	if plan.FusedNodes() != 1 {
		t.Fatalf("fused=%d, want 1 (only relu2)", plan.FusedNodes())
	}
	var hooked []string
	st := plan.NewState()
	if _, err := plan.RunHook(st, feed(-2, 1, 2, 3), func(n *Node, out *tensor.Tensor) *tensor.Tensor {
		hooked = append(hooked, n.Name())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != "sq1" {
		t.Fatalf("hooked %v, want [sq1]", hooked)
	}
}

func TestPlanObservedChainEndStillFuses(t *testing.T) {
	g := chainGraph(t)
	// relu1 is observed but is the END of its fused chain, so it may fold
	// into sq1's step: the hook fires with relu1's (post-epilogue) value,
	// identical to the legacy executor's.
	plan, err := CompileWith(g, CompileOptions{Observe: []string{"relu1"}}, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	if plan.FusedNodes() != 2 {
		t.Fatalf("fused=%d, want 2 (relu1 and relu2 both fold)", plan.FusedNodes())
	}
	feeds := feed(-2, 1, 2, 3)
	var legacyVal, planVal []float32
	e := Executor{Hook: func(n *Node, out *tensor.Tensor) *tensor.Tensor {
		if n.Name() == "relu1" {
			legacyVal = append([]float32{}, out.Data()...)
		}
		return nil
	}}
	if _, err := e.Run(g, feeds, "relu2"); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunHook(plan.NewState(), feeds, func(n *Node, out *tensor.Tensor) *tensor.Tensor {
		planVal = append([]float32{}, out.Data()...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(legacyVal) != fmt.Sprint(planVal) {
		t.Fatalf("observed fused chain end: plan %v != legacy %v", planVal, legacyVal)
	}
}

func TestPlanHookReplacementPropagates(t *testing.T) {
	g := chainGraph(t)
	plan, err := CompileWith(g, CompileOptions{Observe: []string{"sq1"}}, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	repl := tensor.MustFromSlice([]float32{-1, -1, 2, 2}, 1, 4)
	st := plan.NewState()
	outs, err := plan.RunHook(st, feed(5, 5, 5, 5), func(n *Node, out *tensor.Tensor) *tensor.Tensor {
		if n.Name() == "sq1" {
			return repl
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// relu(square(relu(repl))): relu1(-1,-1,2,2)=(0,0,2,2); sq2=(0,0,4,4);
	// relu2 the same.
	want := []float32{0, 0, 4, 4}
	for i, v := range outs[0].Data() {
		if v != want[i] {
			t.Fatalf("element %d = %g, want %g (replacement not propagated)", i, v, want[i])
		}
	}
	// The hook's replacement tensor must not have been mutated in place by
	// downstream fused epilogues.
	if repl.Data()[0] != -1 || repl.Data()[2] != 2 {
		t.Fatalf("hook replacement mutated: %v", repl.Data())
	}
}

func TestPlanObserveAllMatchesExecutorHookOrder(t *testing.T) {
	g := chainGraph(t)
	record := func(run func(hook Hook) error) (names []string, sums []float32) {
		hook := func(n *Node, out *tensor.Tensor) *tensor.Tensor {
			names = append(names, n.Name())
			var s float32
			for _, v := range out.Data() {
				s += v
			}
			sums = append(sums, s)
			return nil
		}
		if err := run(hook); err != nil {
			t.Fatal(err)
		}
		return
	}
	feeds := feed(-3, 0.5, 1, 2)
	legacyNames, legacySums := record(func(hook Hook) error {
		e := Executor{Hook: hook}
		_, err := e.Run(g, feeds, "relu2")
		return err
	})
	plan, err := CompileWith(g, CompileOptions{ObserveAll: true}, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	if plan.FusedNodes() != 0 {
		t.Fatalf("ObserveAll must disable fusion, got %d folds", plan.FusedNodes())
	}
	planNames, planSums := record(func(hook Hook) error {
		_, err := plan.RunHook(plan.NewState(), feeds, hook)
		return err
	})
	if fmt.Sprint(legacyNames) != fmt.Sprint(planNames) {
		t.Fatalf("hook order differs: %v vs %v", planNames, legacyNames)
	}
	for i := range legacySums {
		if math.Float32bits(legacySums[i]) != math.Float32bits(planSums[i]) {
			t.Fatalf("hooked value %d (%s) differs", i, legacyNames[i])
		}
	}
}

func TestPlanSlotReuseFromLiveness(t *testing.T) {
	// A 6-deep unfusable chain (observe everything) needs only 2 buffers:
	// each node's input dies as soon as the node has run.
	g := New()
	prev := g.MustAdd("in", &Placeholder{Shape: []int{0, 8}})
	for i := 0; i < 6; i++ {
		prev = g.MustAdd(fmt.Sprintf("sq%d", i), testSquare{}, prev)
	}
	plan, err := CompileWith(g, CompileOptions{ObserveAll: true}, prev.Name())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Slots() != 2 {
		t.Fatalf("slots = %d, want 2 (liveness reuse)", plan.Slots())
	}
	// And the reuse must not corrupt results.
	var e Executor
	feeds := Feeds{"in": tensor.MustFromSlice([]float32{1.1, 0.9, 1, 2, -1, 0.5, 3, 0.25}, 1, 8)}
	want, err := e.Run(g, feeds, prev.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(plan.NewState(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTensors(t, want, got)
}

func TestPlanFetchBuffersNotReused(t *testing.T) {
	// Both fetches must stay valid at the end of the run even though the
	// first is consumed mid-graph.
	g := New()
	ph := g.MustAdd("in", &Placeholder{Shape: []int{0, 4}})
	a := g.MustAdd("a", testSquare{}, ph)
	b := g.MustAdd("b", testSquare{}, a)
	c := g.MustAdd("c", testSquare{}, b)
	plan, err := Compile(g, a.Name(), c.Name())
	if err != nil {
		t.Fatal(err)
	}
	st := plan.NewState()
	outs, err := plan.Run(st, feed(2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	wantA := []float32{4, 9, 16, 25}
	for i, v := range outs[0].Data() {
		if v != wantA[i] {
			t.Fatalf("fetch a corrupted by slot reuse: %v", outs[0].Data())
		}
	}
}

func TestPlanFeedShapeValidation(t *testing.T) {
	g := chainGraph(t)
	plan, err := Compile(g, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong rank.
	_, err = plan.Run(plan.NewState(), Feeds{"in": tensor.New(4)})
	if !errors.Is(err, ErrFeedShape) {
		t.Fatalf("rank mismatch: err = %v, want ErrFeedShape", err)
	}
	// Wrong fixed dimension (declared 4, fed 3).
	_, err = plan.Run(plan.NewState(), Feeds{"in": tensor.New(1, 3)})
	if !errors.Is(err, ErrFeedShape) {
		t.Fatalf("dim mismatch: err = %v, want ErrFeedShape", err)
	}
	// Any batch size passes (declared 0).
	if _, err := plan.Run(plan.NewState(), Feeds{"in": tensor.New(7, 4)}); err != nil {
		t.Fatalf("batch-dim 0 must accept any batch: %v", err)
	}
	// Missing feed is a typed error too.
	_, err = plan.Run(plan.NewState(), Feeds{})
	if !errors.Is(err, ErrMissingFeed) {
		t.Fatalf("missing feed: err = %v, want ErrMissingFeed", err)
	}
}

func TestExecutorFeedShapeValidation(t *testing.T) {
	g := chainGraph(t)
	var e Executor
	_, err := e.Run(g, Feeds{"in": tensor.New(2, 9)}, "relu2")
	if !errors.Is(err, ErrFeedShape) {
		t.Fatalf("Executor.Run: err = %v, want ErrFeedShape", err)
	}
	if _, err := e.RunAll(g, Feeds{"in": tensor.New(1, 9)}); !errors.Is(err, ErrFeedShape) {
		t.Fatalf("Executor.RunAll: err = %v, want ErrFeedShape", err)
	}
}

func TestPlanInferredShapes(t *testing.T) {
	g := chainGraph(t)
	plan, err := Compile(g, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := plan.InferredShapes(feed(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	sh := shapes["relu2"]
	if len(sh) != 2 || sh[0] != 1 || sh[1] != 4 {
		t.Fatalf("relu2 shape = %v, want [1 4]", sh)
	}
}

func TestPlanStateIsReusableAcrossBatchSizes(t *testing.T) {
	g := chainGraph(t)
	plan, err := Compile(g, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	st := plan.NewState()
	rng := rand.New(rand.NewSource(3))
	var e Executor
	for _, batch := range []int{1, 3, 1, 5, 2} {
		x := tensor.New(batch, 4).Randn(rng, 1)
		feeds := Feeds{"in": x}
		want, err := e.Run(g, feeds, "relu2")
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Run(st, feeds)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTensors(t, want, got)
	}
}

func TestPlanFallbackForUnplannedOps(t *testing.T) {
	// testNeg implements neither ShapeOp nor PlannedOp: the plan must
	// fall back to Eval and still match the executor, including for
	// downstream planned consumers whose shapes are then unknown.
	g := New()
	ph := g.MustAdd("in", &Placeholder{Shape: []int{0, 4}})
	n := g.MustAdd("neg", testNeg{}, ph)
	g.MustAdd("sq", testSquare{}, n)
	plan, err := Compile(g, "sq")
	if err != nil {
		t.Fatal(err)
	}
	var e Executor
	feeds := feed(-1, 2, -3, 4)
	want, err := e.Run(g, feeds, "sq")
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(plan.NewState(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTensors(t, want, got)
}

func TestCompileErrors(t *testing.T) {
	g := chainGraph(t)
	if _, err := Compile(g); err == nil {
		t.Fatal("want error for no fetches")
	}
	if _, err := Compile(g, "nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown fetch: err = %v, want ErrUnknownNode", err)
	}
}

func TestPlanRejectsForeignState(t *testing.T) {
	g := chainGraph(t)
	p1, err := Compile(g, "relu2")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(g, "relu1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Run(p2.NewState(), feed(1, 2, 3, 4)); err == nil {
		t.Fatal("want error for state from a different plan")
	}
}
