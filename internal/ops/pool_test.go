package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// refMaxPool is the per-channel max pooling loop the channel-contiguous
// kernels replaced: every output element walks its window on its own,
// starting at -Inf and taking a tap only when strictly greater. It
// returns the pooled output and the winning flat input index of each
// output element (-1 for a window wholly in padding).
func refMaxPool(x *tensor.Tensor, g tensor.ConvGeom) ([]float32, []int) {
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := g.OutDims(h, w)
	xd := x.Data()
	od, arg := make([]float32, n*oh*ow*c), make([]int, n*oh*ow*c)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best, bestIdx := float32(math.Inf(-1)), -1
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.SH - g.PadH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.SW - g.PadW + kx
							if ix < 0 || ix >= w {
								continue
							}
							if idx := ((b*h+iy)*w+ix)*c + ch; xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					oidx := ((b*oh+oy)*ow+ox)*c + ch
					od[oidx], arg[oidx] = best, bestIdx
				}
			}
		}
	}
	return od, arg
}

// refQMaxPool is refMaxPool on int8 (each window's max starts at -128),
// with every max mapped through lut.
func refQMaxPool(x *tensor.QTensor, g tensor.ConvGeom, lut *[256]int8) []int8 {
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := g.OutDims(h, w)
	xd := x.Data()
	od := make([]int8, n*oh*ow*c)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := int8(-128)
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.SH - g.PadH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.SW - g.PadW + kx
							if ix >= 0 && ix < w && xd[((b*h+iy)*w+ix)*c+ch] > best {
								best = xd[((b*h+iy)*w+ix)*c+ch]
							}
						}
					}
					od[((b*oh+oy)*ow+ox)*c+ch] = lut[tensor.LutIndex(best)]
				}
			}
		}
	}
	return od
}

// poolInput draws an NHWC input from a few values so that most windows
// hold ties, ±0 ties among them (where the first tap must win), with
// NaN and ±Inf mixed in.
func poolInput(rng *rand.Rand, h, w, c int) *tensor.Tensor {
	vals := []float32{-1, 0, float32(math.Copysign(0, -1)), 0.5, 2,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	x := tensor.New(2, h, w, c)
	for i := range x.Data() {
		x.Data()[i] = vals[rng.Intn(len(vals))]
	}
	return x
}

// poolGeoms returns the windowCases pool geometries (kernels 1–5,
// strides 1–3, padding below the kernel) plus two whose corner windows
// lie wholly in padding.
func poolGeoms(rng *rand.Rand, h, w int) []tensor.ConvGeom {
	gs := []tensor.ConvGeom{
		{KH: 1, KW: 1, SH: 1, SW: 1, PadH: 1, PadW: 1},
		{KH: 2, KW: 2, SH: 3, SW: 3, PadH: 2, PadW: 2},
	}
	for i := 0; i < 12; i++ {
		gs = append(gs, randGeom(rng, h, w, true))
	}
	return gs
}

// TestMaxPoolMatchesPerChannelOracle pins the channel-contiguous fp32
// and int8 max pooling kernels to the per-channel loops, bit for bit,
// on whole values and random windows (pixels outside a window must keep
// their bits), with the fp32 argmax of the Grad path alongside.
func TestMaxPoolMatchesPerChannelOracle(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		inQ, outQ := qp(-2, 2), qp(-1, 3)
		epi := []tensor.Stage{{Kind: tensor.StageRelu}, {Kind: tensor.StageClamp, Lo: 0, Hi: 1.5}}
		f, err := scalarStageFunc(nil, epi)
		if err != nil {
			t.Fatal(err)
		}
		lut := tensor.QLut(inQ, outQ, f)
		for _, c := range []int{1, 3, 5, 8, 13, 20, 40, 70, 130} {
			h, w := 5+rng.Intn(4), 5+rng.Intn(4)
			for _, g := range poolGeoms(rng, h, w) {
				name := fmt.Sprintf("c=%d %dx%d geom %+v", c, h, w, g)
				op := &MaxPoolOp{Geom: g}
				x := poolInput(rng, h, w, c)
				want, wantArg := refMaxPool(x, g)
				oh, ow := g.OutDims(h, w)

				arg := make([]int, len(wantArg))
				got, err := op.eval(x, arg)
				if err != nil {
					t.Fatal(err)
				}
				checkPooled(t, name+" eval", got.Data(), want, nil, graph.Window{Y1: oh, X1: ow}, oh, ow, c)
				for i := range arg {
					if arg[i] != wantArg[i] {
						t.Fatalf("%s: argmax of element %d: %d, want %d", name, i, arg[i], wantArg[i])
					}
				}

				qx := tensor.Quantize(x, inQ)
				qwant := refQMaxPool(qx, g, lut)
				k, err := op.QuantKernel(graph.QuantSpec{In: []tensor.QParams{inQ}, Out: outQ, Epilogue: epi})
				if err != nil {
					t.Fatal(err)
				}
				for iter := 0; iter < 4; iter++ {
					win := graph.Window{Y1: oh, X1: ow}
					if iter > 0 {
						win = randWindow(rng, oh, ow)
					}
					sentinel := math.Float32frombits(0x7fa5a5a5)
					out := tensor.New(2, oh, ow, c)
					out.Fill(sentinel)
					if err := op.EvalInto([]*tensor.Tensor{x}, out, win); err != nil {
						t.Fatal(err)
					}
					checkPooled(t, fmt.Sprintf("%s fp32 window %+v", name, win), out.Data(), want, &sentinel, win, oh, ow, c)

					qout := tensor.NewQ(outQ, 2, oh, ow, c)
					for i := range qout.Data() {
						qout.Data()[i] = 77
					}
					if err := k([]*tensor.QTensor{qx}, qout, win, nil); err != nil {
						t.Fatal(err)
					}
					for i, q := range qout.Data() {
						want := int8(77)
						if inWindow(i/c, win, oh, ow) {
							want = qwant[i]
						}
						if q != want {
							t.Fatalf("%s int8 window %+v: element %d: %d, want %d", name, win, i, q, want)
						}
					}
				}
			}
		}
	})
}

// inWindow reports whether flat pixel p of an (n, oh, ow) value lies in
// win.
func inWindow(p int, win graph.Window, oh, ow int) bool {
	y, x := p/ow%oh, p%ow
	return y >= win.Y0 && y < win.Y1 && x >= win.X0 && x < win.X1
}

// checkPooled compares got with want bit for bit on win's pixels and,
// when sentinel is non-nil, requires every other element to hold it.
func checkPooled(t *testing.T, name string, got, want []float32, sentinel *float32, win graph.Window, oh, ow, c int) {
	t.Helper()
	for i, v := range got {
		w := want[i]
		if !inWindow(i/c, win, oh, ow) {
			if sentinel == nil {
				continue
			}
			w = *sentinel
		}
		if math.Float32bits(v) != math.Float32bits(w) {
			t.Fatalf("%s: element %d: %#x, want %#x", name, i, math.Float32bits(v), math.Float32bits(w))
		}
	}
}

// forEachKernelPath runs f as one subtest per tensor kernel path (the
// portable Go loops, and the AVX2 kernels where the CPU has them).
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	tensor.ForEachKernelPath(func(path string) { t.Run(path, f) })
}
