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
	forEachKernelPath(t, func(t *testing.T) {
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
	})
}

func TestAddQuantKernelRescales(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
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
	})
}

// TestAddQuantKernelMatchesPerElementLoop runs the int8 residual Add on
// random windows of NHWC and rank-2 values, under no epilogue, ReLU,
// ReLU→clamp (resnet18's Add+Relu+RangerClip) and a Tanh head, and
// compares every element of the window with the kernel's former
// per-element loop: dequantize both operands, add, run the stages,
// quantize.
func TestAddQuantKernelMatchesPerElementLoop(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		pa, pb, outQ := qp(-2, 5), qp(-3, 3), qp(0, 6)
		tanh := Tanh().(*unary)
		for _, epi := range [][]tensor.Stage{
			nil,
			{{Kind: tensor.StageRelu}},
			{{Kind: tensor.StageRelu}, {Kind: tensor.StageClamp, Lo: 0, Hi: 2.75}},
			{{Kind: tensor.StageMap, F: tanh.f}},
		} {
			k, err := AddOp{}.QuantKernel(graph.QuantSpec{
				In: []tensor.QParams{pa, pb}, Out: outQ, Consts: []*tensor.Tensor{nil, nil}, Epilogue: epi,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range [][]int{{2, 5, 6, 24}, {1, 3, 3, 5}, {3, 40}} {
				a := quantizeAll(tensor.New(shape...).Randn(rng, 2), pa)
				b := quantizeAll(tensor.New(shape...).Randn(rng, 2), pb)
				_, oh, ow, pc := graph.PixelDims(shape)
				for iter := 0; iter < 6; iter++ {
					win := randWindow(rng, oh, ow)
					got := tensor.NewQ(outQ, shape...)
					if err := k([]*tensor.QTensor{a, b}, got, win, nil); err != nil {
						t.Fatal(err)
					}
					for i, v := range got.Data() {
						p := i / pc
						if y, x := p/ow%oh, p%ow; y < win.Y0 || y >= win.Y1 || x < win.X0 || x >= win.X1 {
							continue
						}
						sum := pa.Dequantize(a.Data()[i]) + pb.Dequantize(b.Data()[i])
						if want := outQ.Quantize(tensor.Epilogue(epi).ApplyAt(sum, i)); v != want {
							t.Fatalf("%v window %+v: element %d: %d, want %d", shape, win, i, v, want)
						}
					}
				}
			}
		}
	})
}

func TestConcatQuantKernelStripes(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
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
	})
}

func TestAvgPoolQuantKernel(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
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
	})
}

func TestClipQuantKernelPolicies(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
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
	})
}

// TestGemmGeneralPathStages pins the non-canonical epilogue path: a
// matmul with a fused bias→tanh→scale chain (the Dave head shape) must
// match the float computation within quantization noise.
func TestGemmGeneralPathStages(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
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
	})
}

// TestGemmCanonicalPathRequant pins the canonical bias→ReLU→clamp
// requantization (tensor.Requant) of an int8 convolution, whose pixel
// pairs requantize in one call, and an int8 matmul: the outputs stay
// within quantization noise of the float computation, every stored
// value lies inside the ReLU floor and the clamp's int8 limits, and the
// Go and AVX2 kernel paths write the same bytes.
func TestGemmCanonicalPathRequant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const c, n = 5, 19
	bias := tensor.New(n).Randn(rng, 0.5)
	const lo, hi = -0.25, 1.5
	stages := []tensor.Stage{
		{Kind: tensor.StageBias, Vec: bias.Data(), C: n},
		{Kind: tensor.StageRelu},
		{Kind: tensor.StageClamp, Lo: lo, Hi: hi},
	}
	inQ, outQ := qp(-4, 4), qp(-3, 3)
	qlo, qhi := max(outQ.Zero, int32(outQ.Quantize(lo))), int32(outQ.Quantize(hi))
	type gemmCase struct {
		name string
		op   graph.QuantizedOp
		eval func(x, w *tensor.Tensor) (*tensor.Tensor, error)
		x, w *tensor.Tensor
		taps int
	}
	conv := &Conv2DOp{Geom: tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1}}
	cases := []gemmCase{
		{"conv", conv, func(x, w *tensor.Tensor) (*tensor.Tensor, error) { return conv.Eval([]*tensor.Tensor{x, w}) },
			tensor.New(2, 6, 7, c).Randn(rng, 1), tensor.New(3, 3, c, n).Randn(rng, 0.3), 9 * c},
		{"dense", DenseOp{}, tensor.MatMul, tensor.New(5, 23).Randn(rng, 1), tensor.New(23, n).Randn(rng, 0.3), 23},
	}
	firsts := make([][]int8, len(cases))
	forEachKernelPath(t, func(t *testing.T) {
		for i, gc := range cases {
			kern, err := gc.op.QuantKernel(graph.QuantSpec{
				In:       []tensor.QParams{inQ, {}},
				Out:      outQ,
				Consts:   []*tensor.Tensor{nil, gc.w},
				Epilogue: stages,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := gc.eval(gc.x, gc.w)
			if err != nil {
				t.Fatal(err)
			}
			tensor.Epilogue(stages).Apply(want.Data())
			out := tensor.NewQ(outQ, want.Shape()...)
			if err := kern([]*tensor.QTensor{quantizeAll(gc.x, inQ), nil}, out, graph.Whole(out.Shape()), &tensor.QScratch{}); err != nil {
				t.Fatal(err)
			}
			for j, q := range out.Data() {
				if int32(q) < qlo || int32(q) > qhi {
					t.Fatalf("%s: elem %d = %d outside [%d, %d]", gc.name, j, q, qlo, qhi)
				}
			}
			// Half an input step times |w| ≈ 0.3 per tap, weight
			// rounding noise of the same order, and two output steps.
			tol := float64(inQ.Scale)*float64(gc.taps)*0.1 + 2*float64(outQ.Scale)
			if d := maxAbsDiff(want, out); d > tol {
				t.Fatalf("%s: canonical-path err %g > %g", gc.name, d, tol)
			}
			if firsts[i] == nil {
				firsts[i] = append([]int8{}, out.Data()...)
				continue
			}
			for j, q := range out.Data() {
				if q != firsts[i][j] {
					t.Fatalf("%s: elem %d = %d, %d on the first kernel path", gc.name, j, q, firsts[i][j])
				}
			}
		}
	})
}
