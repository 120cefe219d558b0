package ops

import (
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	return tensor.New(shape...).Randn(rng, 2)
}

// plannedCase pairs an op with valid inputs for it.
type plannedCase struct {
	name string
	op   graph.Op
	in   []*tensor.Tensor
}

func plannedCases(rng *rand.Rand) []plannedCase {
	geom := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1}
	pool := tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2}
	return []plannedCase{
		{"conv2d", &Conv2DOp{Geom: geom}, []*tensor.Tensor{randT(rng, 2, 6, 6, 3), randT(rng, 3, 3, 3, 4)}},
		{"matmul", DenseOp{}, []*tensor.Tensor{randT(rng, 3, 5), randT(rng, 5, 7)}},
		{"biasadd", BiasAddOp{}, []*tensor.Tensor{randT(rng, 2, 3, 3, 4), randT(rng, 4)}},
		{"add", AddOp{}, []*tensor.Tensor{randT(rng, 2, 8), randT(rng, 2, 8)}},
		{"scale", &ScaleOp{Factor: -1.75}, []*tensor.Tensor{randT(rng, 3, 4)}},
		{"relu", Relu(), []*tensor.Tensor{randT(rng, 2, 9)}},
		{"tanh", Tanh(), []*tensor.Tensor{randT(rng, 2, 9)}},
		{"sigmoid", Sigmoid(), []*tensor.Tensor{randT(rng, 2, 9)}},
		{"elu", Elu(), []*tensor.Tensor{randT(rng, 2, 9)}},
		{"atan", Atan(), []*tensor.Tensor{randT(rng, 2, 9)}},
		{"clip", NewClip(-0.5, 0.75), []*tensor.Tensor{randT(rng, 2, 3, 3, 2)}},
		{"clip-zero", &ClipOp{Low: -0.5, High: 0.5, Policy: PolicyZero}, []*tensor.Tensor{randT(rng, 2, 10)}},
		{"clip-random", &ClipOp{Low: -0.5, High: 0.5, Policy: PolicyRandom}, []*tensor.Tensor{randT(rng, 2, 10)}},
		{"maxpool", &MaxPoolOp{Geom: pool}, []*tensor.Tensor{randT(rng, 2, 6, 6, 3)}},
		{"avgpool", &AvgPoolOp{Geom: pool}, []*tensor.Tensor{randT(rng, 2, 6, 6, 3)}},
		{"reshape", Flatten(), []*tensor.Tensor{randT(rng, 2, 3, 3, 2)}},
		{"concat", ConcatOp{}, []*tensor.Tensor{randT(rng, 2, 4, 4, 3), randT(rng, 2, 4, 4, 5)}},
		{"softmax", SoftmaxOp{}, []*tensor.Tensor{randT(rng, 3, 6)}},
		{"xent", XentOp{}, []*tensor.Tensor{randT(rng, 3, 6), onehot(3, 6)}},
		{"mse", MSEOp{}, []*tensor.Tensor{randT(rng, 3, 1), randT(rng, 3, 1)}},
	}
}

func onehot(n, c int) *tensor.Tensor {
	t := tensor.New(n, c)
	for i := 0; i < n; i++ {
		t.Set(1, i, i%c)
	}
	return t
}

// TestInferShapeMatchesEval pins every op's InferShape against the
// shape its Eval actually produces.
func TestInferShapeMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range plannedCases(rng) {
		sop, ok := tc.op.(graph.ShapeOp)
		if !ok {
			t.Errorf("%s: does not implement graph.ShapeOp", tc.name)
			continue
		}
		ins := make([][]int, len(tc.in))
		for i, x := range tc.in {
			ins[i] = x.Shape()
		}
		inferred, err := sop.InferShape(ins)
		if err != nil {
			t.Errorf("%s: InferShape: %v", tc.name, err)
			continue
		}
		out, err := tc.op.Eval(tc.in)
		if err != nil {
			t.Errorf("%s: Eval: %v", tc.name, err)
			continue
		}
		got := out.Shape()
		if len(got) != len(inferred) {
			t.Errorf("%s: inferred %v, eval produced %v", tc.name, inferred, got)
			continue
		}
		for i := range got {
			if got[i] != inferred[i] {
				t.Errorf("%s: inferred %v, eval produced %v", tc.name, inferred, got)
				break
			}
		}
	}
}

// TestEvalIntoMatchesEval pins every PlannedOp's EvalInto bit-identical
// to Eval, including when the output buffer starts with stale garbage.
func TestEvalIntoMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range plannedCases(rng) {
		pop, ok := tc.op.(graph.PlannedOp)
		if !ok {
			continue // Eval-fallback ops are covered by the plan tests
		}
		want, err := tc.op.Eval(tc.in)
		if err != nil {
			t.Fatalf("%s: Eval: %v", tc.name, err)
		}
		out := tensor.New(want.Shape()...)
		out.Fill(float32(math.NaN())) // stale-garbage stand-in
		if err := pop.EvalInto(tc.in, out, graph.Whole(out.Shape())); err != nil {
			t.Fatalf("%s: EvalInto: %v", tc.name, err)
		}
		wd, od := want.Data(), out.Data()
		for i := range wd {
			if math.Float32bits(wd[i]) != math.Float32bits(od[i]) {
				t.Fatalf("%s: element %d: EvalInto %g != Eval %g", tc.name, i, od[i], wd[i])
			}
		}
	}
}

// TestFuseSpecMatchesEval pins each fusable op's epilogue stage
// bit-identical to its Eval.
func TestFuseSpecMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := randT(rng, 2, 3, 3, 4)
	// Special values must fuse bit-identically too (ReLU maps NaN and
	// -0.0 to +0; clip passes NaN through).
	x.Data()[0] = float32(math.NaN())
	x.Data()[1] = float32(math.Inf(1))
	x.Data()[2] = float32(math.Inf(-1))
	x.Data()[3] = float32(math.Copysign(0, -1))
	bias := randT(rng, 4)
	cases := []struct {
		name string
		op   graph.Op
		in   []*tensor.Tensor
	}{
		{"biasadd", BiasAddOp{}, []*tensor.Tensor{x, bias}},
		{"relu", Relu(), []*tensor.Tensor{x}},
		{"tanh", Tanh(), []*tensor.Tensor{x}},
		{"clip", NewClip(-0.25, 0.5), []*tensor.Tensor{x}},
		{"scale", &ScaleOp{Factor: 3.5}, []*tensor.Tensor{x}},
	}
	for _, tc := range cases {
		fop, ok := tc.op.(graph.FusableOp)
		if !ok {
			t.Fatalf("%s: does not implement graph.FusableOp", tc.name)
		}
		stage, ok := fop.FuseSpec()
		if !ok {
			t.Fatalf("%s: FuseSpec not fusable", tc.name)
		}
		if stage.Kind == tensor.StageBias {
			stage.Vec, stage.C = bias.Data(), bias.Size()
		}
		want, err := tc.op.Eval(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		got := tc.in[0].Clone()
		tensor.Epilogue{stage}.Apply(got.Data())
		wd, gd := want.Data(), got.Data()
		for i := range wd {
			if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
				t.Fatalf("%s: element %d: fused %g != eval %g", tc.name, i, gd[i], wd[i])
			}
		}
	}
}

// TestNonDefaultClipPoliciesDoNotFuse: PolicyZero and PolicyRandom (and
// inverted bounds) must stay materialized so their exact per-call
// semantics and error paths are preserved.
func TestNonDefaultClipPoliciesDoNotFuse(t *testing.T) {
	for _, c := range []*ClipOp{
		{Low: 0, High: 1, Policy: PolicyZero},
		{Low: 0, High: 1, Policy: PolicyRandom},
		{Low: 2, High: 1, Policy: PolicyClip},
	} {
		if _, ok := c.FuseSpec(); ok {
			t.Errorf("clip %+v: must not fuse", c)
		}
	}
	if _, ok := NewClip(0, 1).FuseSpec(); !ok {
		t.Error("default clip must fuse")
	}
}
