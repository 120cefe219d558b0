package ops

import (
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// TestBiasAddIndexesFromChannelBoundary compares the fp32 and int8
// BiasAdd loops, which index the bias with a wrapping channel counter,
// with a test-side reference that indexes it by the element's flat
// index in the whole tensor, i%c. biasAdd runs on pixel-aligned
// slices that start mid-tensor; the int8 kernel runs on windows,
// whose spans start mid-tensor, of an NHWC value and on a rank-2 one.
func TestBiasAddIndexesFromChannelBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []int{1, 3, 8} {
		b := tensor.New(c).Randn(rng, 1)
		bd := b.Data()
		whole := tensor.New(2, 3, 4, c).Randn(rng, 1)
		wd := whole.Data()
		for _, span := range [][2]int{{0, 24}, {1, 2}, {5, 13}, {23, 24}} {
			lo, hi := span[0]*c, span[1]*c
			out := make([]float32, hi-lo)
			biasAdd(wd[lo:hi], bd, out)
			for i, v := range out {
				if want := wd[lo+i] + bd[(lo+i)%c]; math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("c=%d fp32 pixels %v: element %d: %g, want %g", c, span, lo+i, v, want)
				}
			}
		}

		inQ, outQ := qp(-3, 3), qp(-4, 4)
		epi := []tensor.Stage{{Kind: tensor.StageRelu}, {Kind: tensor.StageClamp, Lo: 0, Hi: 2.5}}
		k, err := BiasAddOp{}.QuantKernel(graph.QuantSpec{
			In: []tensor.QParams{inQ, {}}, Out: outQ, Consts: []*tensor.Tensor{nil, b}, Epilogue: epi,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][]int{{2, 3, 4, c}, {3, c}} {
			x := quantizeAll(tensor.New(shape...).Randn(rng, 1.5), inQ)
			_, oh, ow, pc := graph.PixelDims(shape)
			for iter := 0; iter < 8; iter++ {
				win := randWindow(rng, oh, ow)
				got := tensor.NewQ(outQ, shape...)
				if err := k([]*tensor.QTensor{x, nil}, got, win, nil); err != nil {
					t.Fatal(err)
				}
				for i, v := range got.Data() {
					p := i / pc
					if y, xx := p/ow%oh, p%ow; y < win.Y0 || y >= win.Y1 || xx < win.X0 || xx >= win.X1 {
						continue
					}
					sum := inQ.Dequantize(x.Data()[i]) + bd[i%c]
					if want := outQ.Quantize(tensor.Epilogue(epi).ApplyAt(sum, i)); v != want {
						t.Fatalf("c=%d int8 %v window %+v: element %d: %d, want %d", c, shape, win, i, v, want)
					}
				}
			}
		}
	}
}
