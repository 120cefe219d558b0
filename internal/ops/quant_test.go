package ops

import (
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// qparams for a quick symmetric activation domain.
func qp(lo, hi float64) tensor.QParams { return tensor.QParamsFor(lo, hi) }

// quantizeAll quantizes a float tensor under p.
func quantizeAll(x *tensor.Tensor, p tensor.QParams) *tensor.QTensor {
	return tensor.Quantize(x, p)
}

func maxAbsDiff(a *tensor.Tensor, b *tensor.QTensor) float64 {
	worst := 0.0
	bd := b.Dequantize().Data()
	for i, v := range a.Data() {
		if d := math.Abs(float64(v - bd[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func TestUnaryQuantKernelLut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 9).Randn(rng, 1.5)
	inQ, outQ := qp(-5, 5), qp(-1, 1)
	op := Tanh().(*unary)
	k, err := op.QuantKernel(graph.QuantSpec{In: []tensor.QParams{inQ}, Out: outQ, Consts: []*tensor.Tensor{nil}})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewQ(outQ, 2, 9)
	if err := k([]*tensor.QTensor{quantizeAll(x, inQ)}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
		t.Fatal(err)
	}
	want := x.Map(op.f)
	// One input step through tanh' ≤ 1, plus one output step.
	tol := float64(inQ.Scale) + float64(outQ.Scale)
	if d := maxAbsDiff(want, out); d > tol {
		t.Fatalf("tanh lut err %g > %g", d, tol)
	}
}

func TestAddQuantKernelRescales(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.New(3, 4).Randn(rng, 1)
	b := tensor.New(3, 4).Randn(rng, 2)
	pa, pb := qp(-4, 4), qp(-8, 8)
	outQ := qp(-12, 12)
	k, err := AddOp{}.QuantKernel(graph.QuantSpec{
		In: []tensor.QParams{pa, pb}, Out: outQ, Consts: []*tensor.Tensor{nil, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewQ(outQ, 3, 4)
	if err := k([]*tensor.QTensor{quantizeAll(a, pa), quantizeAll(b, pb)}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
		t.Fatal(err)
	}
	want, _ := a.Add(b)
	tol := float64(pa.Scale+pb.Scale)/2 + float64(outQ.Scale)
	if d := maxAbsDiff(want, out); d > tol {
		t.Fatalf("add err %g > %g", d, tol)
	}
}

func TestConcatQuantKernelStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.New(1, 2, 2, 3).Randn(rng, 1)
	b := tensor.New(1, 2, 2, 2).Randn(rng, 1)
	pa, pb, po := qp(-3, 3), qp(-3, 3), qp(-3, 3)
	k, err := ConcatOp{}.QuantKernel(graph.QuantSpec{
		In: []tensor.QParams{pa, pb}, Out: po, Consts: []*tensor.Tensor{nil, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewQ(po, 1, 2, 2, 5)
	if err := k([]*tensor.QTensor{quantizeAll(a, pa), quantizeAll(b, pb)}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
		t.Fatal(err)
	}
	want, err := ConcatOp{}.Eval([]*tensor.Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	tol := float64(pa.Scale) // same-scale remap: at most one step
	if d := maxAbsDiff(want, out); d > tol {
		t.Fatalf("concat err %g > %g", d, tol)
	}
}

func TestAvgPoolQuantKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, 4, 4, 2).Randn(rng, 1)
	p := &AvgPoolOp{Geom: tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2}}
	inQ, outQ := qp(-4, 4), qp(-4, 4)
	k, err := p.QuantKernel(graph.QuantSpec{In: []tensor.QParams{inQ}, Out: outQ, Consts: []*tensor.Tensor{nil}})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewQ(outQ, 1, 2, 2, 2)
	if err := k([]*tensor.QTensor{quantizeAll(x, inQ)}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
		t.Fatal(err)
	}
	want, err := p.Eval([]*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	tol := float64(inQ.Scale)/2 + float64(outQ.Scale)
	if d := maxAbsDiff(want, out); d > tol {
		t.Fatalf("avgpool err %g > %g", d, tol)
	}
}

func TestClipQuantKernelPolicies(t *testing.T) {
	inQ, outQ := qp(-4, 4), qp(-4, 4)
	spec := graph.QuantSpec{In: []tensor.QParams{inQ}, Out: outQ, Consts: []*tensor.Tensor{nil}}

	// PolicyZero is a scalar transform and compiles.
	zeroClip := &ClipOp{Low: -1, High: 1, Policy: PolicyZero}
	k, err := zeroClip.QuantKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float32{-3, -0.5, 0.5, 3}, 4)
	out := tensor.NewQ(outQ, 4)
	if err := k([]*tensor.QTensor{quantizeAll(x, inQ)}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
		t.Fatal(err)
	}
	deq := out.Dequantize().Data()
	if math.Abs(float64(deq[0])) > 0.05 || math.Abs(float64(deq[3])) > 0.05 {
		t.Fatalf("policy-zero out-of-bound values survived: %v", deq)
	}
	if math.Abs(float64(deq[1]+0.5)) > 0.05 {
		t.Fatalf("policy-zero in-bound value changed: %v", deq)
	}

	// PolicyRandom is index-dependent: no int8 kernel.
	randClip := &ClipOp{Low: -1, High: 1, Policy: PolicyRandom}
	if _, err := randClip.QuantKernel(spec); err == nil {
		t.Fatal("PolicyRandom compiled to an int8 kernel")
	}
}

// TestGemmGeneralPathStages pins the non-canonical epilogue path: a
// matmul with a fused bias→tanh→scale chain (the Dave head shape) must
// match the float computation within quantization noise.
func TestGemmGeneralPathStages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, n = 6, 3
	x := tensor.New(2, k).Randn(rng, 1)
	w := tensor.New(k, n).Randn(rng, 0.5)
	bias := tensor.New(n).Randn(rng, 0.3)
	tanhOp := Tanh().(*unary)

	inQ := qp(-4, 4)
	outQ := qp(-2, 2)
	stages := []tensor.Stage{
		{Kind: tensor.StageBias, Vec: bias.Data(), C: n},
		{Kind: tensor.StageMap, F: tanhOp.f},
		{Kind: tensor.StageScale, A: 2},
	}
	kern, err := DenseOp{}.QuantKernel(graph.QuantSpec{
		In:       []tensor.QParams{inQ, {}},
		Out:      outQ,
		Consts:   []*tensor.Tensor{nil, w},
		Epilogue: stages,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewQ(outQ, 2, n)
	if err := kern([]*tensor.QTensor{quantizeAll(x, inQ), nil}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
		t.Fatal(err)
	}

	mm, err := tensor.MatMul(x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := mm.Clone()
	tensor.Epilogue(stages).Apply(want.Data())
	// Input noise amplified through the matmul (k taps) and the ×2
	// scale, plus an output step.
	tol := 2*float64(inQ.Scale)*k*0.5 + 2*float64(outQ.Scale)
	if d := maxAbsDiff(want, out); d > tol {
		t.Fatalf("general-path gemm err %g > %g", d, tol)
	}
}
