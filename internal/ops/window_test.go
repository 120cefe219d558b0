package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// windowCase is one windowed op under test: its inputs (constants
// marked for the int8 kernel) and, for the brute-force mapping check,
// whether output pixel (oy, ox) reads pixel (iy, ix) of input i.
type windowCase struct {
	name   string
	op     graph.WindowOp
	ins    []*tensor.Tensor
	consts []bool
	reads  func(i, oy, ox, iy, ix int) bool
}

// randGeom draws a conv or pool geometry (kernel 1–5, stride 1–3,
// padding 0–2; pools get padding below the kernel) whose output over
// h×w is non-empty.
func randGeom(rng *rand.Rand, h, w int, pool bool) tensor.ConvGeom {
	for {
		g := tensor.ConvGeom{KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), SH: 1 + rng.Intn(3), SW: 1 + rng.Intn(3), PadH: rng.Intn(3), PadW: rng.Intn(3)}
		if pool {
			g.PadH, g.PadW = min(g.PadH, g.KH-1), min(g.PadW, g.KW-1)
		}
		if oh, ow := g.OutDims(h, w); oh > 0 && ow > 0 {
			return g
		}
	}
}

// receptive reports whether output position o's taps o*s-pad ..
// o*s-pad+k-1 include input position i.
func receptive(o, i, k, s, pad int) bool {
	return o*s-pad <= i && i <= o*s-pad+k-1
}

func geomReads(g tensor.ConvGeom) func(i, oy, ox, iy, ix int) bool {
	return func(i, oy, ox, iy, ix int) bool {
		return i != 0 || receptive(oy, iy, g.KH, g.SH, g.PadH) && receptive(ox, ix, g.KW, g.SW, g.PadW)
	}
}

func pointReads(vector int) func(i, oy, ox, iy, ix int) bool {
	return func(i, oy, ox, iy, ix int) bool { return i == vector || oy == iy && ox == ix }
}

// windowCases builds every windowed op over random inputs of batch 2
// and h×w pixels, with random conv and pool geometry.
func windowCases(rng *rand.Rand, h, w int) []windowCase {
	x := func(c int) *tensor.Tensor {
		t := tensor.New(2, h, w, c).Randn(rng, 1)
		for i := range t.Data() {
			if rng.Intn(4) == 0 {
				t.Data()[i] = 0 // zero taps take the skip paths
			}
		}
		return t
	}
	cg, mg, ag := randGeom(rng, h, w, false), randGeom(rng, h, w, true), randGeom(rng, h, w, true)
	return []windowCase{
		{"conv", &Conv2DOp{Geom: cg}, []*tensor.Tensor{x(3), tensor.New(cg.KH, cg.KW, 3, 5).Randn(rng, 0.5)}, []bool{false, true}, geomReads(cg)},
		{"maxpool", &MaxPoolOp{Geom: mg}, []*tensor.Tensor{x(3)}, []bool{false}, geomReads(mg)},
		{"avgpool", &AvgPoolOp{Geom: ag}, []*tensor.Tensor{x(3)}, []bool{false}, geomReads(ag)},
		{"add", AddOp{}, []*tensor.Tensor{x(3), x(3)}, []bool{false, false}, pointReads(-1)},
		{"concat", ConcatOp{}, []*tensor.Tensor{x(2), x(3)}, []bool{false, false}, pointReads(-1)},
		{"biasadd", BiasAddOp{}, []*tensor.Tensor{x(3), tensor.New(3).Randn(rng, 1)}, []bool{false, true}, pointReads(1)},
		{"relu", Relu().(*unary), []*tensor.Tensor{x(3)}, []bool{false}, pointReads(-1)},
		{"tanh", Tanh().(*unary), []*tensor.Tensor{x(3)}, []bool{false}, pointReads(-1)},
		{"clip", NewClip(-0.5, 0.7), []*tensor.Tensor{x(3)}, []bool{false}, pointReads(-1)},
		{"clip-zero", &ClipOp{Low: -0.5, High: 0.7, Policy: PolicyZero}, []*tensor.Tensor{x(3)}, []bool{false}, pointReads(-1)},
		{"clip-random", &ClipOp{Low: -0.5, High: 0.7, Policy: PolicyRandom}, []*tensor.Tensor{x(3)}, []bool{false}, pointReads(-1)},
		{"scale", &ScaleOp{Factor: -1.5}, []*tensor.Tensor{x(3)}, []bool{false}, pointReads(-1)},
	}
}

func shapesOf(ts []*tensor.Tensor) [][]int {
	s := make([][]int, len(ts))
	for i, t := range ts {
		s[i] = t.Shape()
	}
	return s
}

// randWindow draws a non-empty window of an h×w value.
func randWindow(rng *rand.Rand, h, w int) graph.Window {
	y0, x0 := rng.Intn(h), rng.Intn(w)
	return graph.Window{Y0: y0, Y1: y0 + 1 + rng.Intn(h-y0), X0: x0, X1: x0 + 1 + rng.Intn(w-x0)}
}

// TestOutWindowMatchesBruteForce checks every op's window mapping
// against brute force: for every pixel of every input, and for random
// input windows, OutWindow must be the box around exactly the output
// pixels that read any pixel of the window.
func TestOutWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 40; iter++ {
		h, w := 1+rng.Intn(9), 1+rng.Intn(9)
		for _, tc := range windowCases(rng, h, w) {
			out, err := tc.op.(graph.ShapeOp).InferShape(shapesOf(tc.ins))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			oh, ow := out[1], out[2]
			brute := func(i int, in graph.Window) graph.Window {
				var want graph.Window
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						for iy := in.Y0; iy < in.Y1; iy++ {
							for ix := in.X0; ix < in.X1; ix++ {
								if tc.reads(i, oy, ox, iy, ix) {
									want = want.Union(graph.Window{Y0: oy, Y1: oy + 1, X0: ox, X1: ox + 1})
								}
							}
						}
					}
				}
				return want
			}
			for i, in := range tc.ins {
				_, ih, iw, _ := graph.PixelDims(in.Shape())
				var wins []graph.Window
				for y := 0; y < ih; y++ {
					for x := 0; x < iw; x++ {
						wins = append(wins, graph.Window{Y0: y, Y1: y + 1, X0: x, X1: x + 1})
					}
				}
				for k := 0; k < 8; k++ {
					wins = append(wins, randWindow(rng, ih, iw))
				}
				for _, in := range wins {
					got, ok := tc.op.OutWindow(i, in, out)
					if want := brute(i, in); !ok || got != want && !(got.Empty() && want.Empty()) {
						t.Fatalf("%s input %d window %+v over %dx%d: OutWindow %+v (ok=%v), brute force %+v", tc.name, i, in, h, w, got, ok, want)
					}
				}
			}
		}
	}
}

// TestEvalWindowMatchesEvalInto checks every windowed kernel against the
// whole-value one on random windows: fp32 EvalInto on a window must
// write exactly the window's pixels, bit-identical to EvalInto on the
// whole value and to the legacy Eval, and leave the rest; the int8
// kernel must compute at least the window's pixels, equal to the
// whole-value kernel's, and leave or recompute the rest.
func TestEvalWindowMatchesEvalInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const sentinel = 0x7fc0beef // a NaN no kernel produces
	for iter := 0; iter < 30; iter++ {
		h, w := 1+rng.Intn(9), 1+rng.Intn(9)
		for _, tc := range windowCases(rng, h, w) {
			shape, err := tc.op.(graph.ShapeOp).InferShape(shapesOf(tc.ins))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want := tensor.New(shape...)
			if err := tc.op.EvalInto(tc.ins, want, graph.Whole(shape)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			legacy, err := tc.op.Eval(tc.ins)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i, v := range legacy.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
					t.Fatalf("%s over %dx%d: element %d: EvalInto %g, Eval %g", tc.name, h, w, i, want.Data()[i], v)
				}
			}
			_, oh, ow, c := graph.PixelDims(shape)
			inWin := func(win graph.Window, i int) bool {
				p := i / c
				y, x := p/ow%oh, p%ow
				return y >= win.Y0 && y < win.Y1 && x >= win.X0 && x < win.X1
			}
			for k := 0; k < 6; k++ {
				win := randWindow(rng, oh, ow)
				got := tensor.New(shape...)
				for i := range got.Data() {
					got.Data()[i] = math.Float32frombits(sentinel)
				}
				if err := tc.op.EvalInto(tc.ins, got, win); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for i, v := range got.Data() {
					wantBits := uint32(sentinel)
					if inWin(win, i) {
						wantBits = math.Float32bits(want.Data()[i])
					}
					if math.Float32bits(v) != wantBits {
						t.Fatalf("%s window %+v over %dx%d: element %d = %#x, want %#x", tc.name, win, oh, ow, i, math.Float32bits(v), wantBits)
					}
				}
			}
			if tc.name != "clip-random" { // index-dependent: no int8 kernel
				checkQuantWindow(t, rng, tc, shape)
			}
		}
	}
}

// checkQuantWindow is TestEvalWindowMatchesEvalInto for tc's int8
// kernel.
func checkQuantWindow(t *testing.T, rng *rand.Rand, tc windowCase, shape []int) {
	t.Helper()
	spec := graph.QuantSpec{In: make([]tensor.QParams, len(tc.ins)), Out: qp(-6, 6), Consts: make([]*tensor.Tensor, len(tc.ins))}
	qins := make([]*tensor.QTensor, len(tc.ins))
	for i, in := range tc.ins {
		if tc.consts[i] {
			spec.Consts[i] = in
			continue
		}
		spec.In[i] = qp(-3-float64(i), 3)
		qins[i] = quantizeAll(in, spec.In[i])
	}
	k, err := tc.op.(graph.QuantizedOp).QuantKernel(spec)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	want := tensor.NewQ(spec.Out, shape...)
	if err := k(qins, want, graph.Whole(shape), &tensor.QScratch{}); err != nil {
		t.Fatalf("int8 %s: %v", tc.name, err)
	}
	_, oh, ow, c := graph.PixelDims(shape)
	for k2 := 0; k2 < 6; k2++ {
		win := randWindow(rng, oh, ow)
		got := tensor.NewQ(spec.Out, shape...)
		for i := range got.Data() {
			got.Data()[i] = 0x5a
		}
		if err := k(qins, got, win, &tensor.QScratch{}); err != nil {
			t.Fatalf("int8 %s: %v", tc.name, err)
		}
		for i, v := range got.Data() {
			p := i / c
			y, x := p/ow%oh, p%ow
			in := y >= win.Y0 && y < win.Y1 && x >= win.X0 && x < win.X1
			if v != want.Data()[i] && (in || v != 0x5a) {
				t.Fatalf("int8 %s window %+v over %dx%d: element %d = %d, want %d", tc.name, win, oh, ow, i, v, want.Data()[i])
			}
		}
	}
}

// TestConcatEvalWindowFlat checks that a non-NHWC concat, a single
// pixel, computes its whole value through EvalInto, equal to the legacy
// Eval.
func TestConcatEvalWindowFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := tensor.New(3, 2).Randn(rng, 1), tensor.New(3, 4).Randn(rng, 1)
	want, err := (ConcatOp{}).Eval([]*tensor.Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.New(3, 6)
	if err := (ConcatOp{}).EvalInto([]*tensor.Tensor{a, b}, got, graph.Whole(got.Shape())); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Data()) != fmt.Sprint(want.Data()) {
		t.Fatalf("flat concat %v, want %v", got.Data(), want.Data())
	}
}
