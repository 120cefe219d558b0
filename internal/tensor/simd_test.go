package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Parity tests for the AVX2 block kernels: each call runs on the
// portable Go kernels (useAVX2 cleared) and on the block kernels, and
// the results are compared bit for bit. On a host without AVX2 only the
// portable path exists.

// hostAVX2 is useAVX2 as the package set it from CPUID.
var hostAVX2 = useAVX2

// kernelPaths returns the kernel paths this host can run: the portable
// one always, the AVX2 one when the CPU has it.
func kernelPaths() []bool {
	if hostAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// onPath runs f on the AVX2 kernels when simd is set and on the
// portable kernels otherwise.
func onPath(simd bool, f func()) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = simd
	f()
}

func pathName(simd bool) string {
	if simd {
		return "avx2"
	}
	return "go"
}

// forEachPath runs f as one subtest per kernel path.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	ForEachKernelPath(func(path string) { t.Run(path, f) })
}

// parityCases returns, for every output channel count n from 1 to 70,
// two convolutions that cycle through kernels 1, 3, 5 and 8, strides 1,
// 2 and 4 and VALID and SAME padding, with input depths 1, 3, 6 and 16,
// batch 2 and output widths of 5 to 7 pixels, so every n%8 tail meets
// every geometry several times.
func parityCases() []convCase {
	var geoms []ConvGeom
	for _, k := range []int{1, 3, 5, 8} {
		for _, s := range []int{1, 2, 4} {
			for _, pad := range []int{0, SamePad(k)} {
				geoms = append(geoms, ConvGeom{KH: k, KW: k, SH: s, SW: s, PadH: pad, PadW: pad})
			}
		}
	}
	var cs []convCase
	for n := 1; n <= 70; n++ {
		for j := 0; j < 2; j++ {
			i := len(cs)
			g := geoms[(i*7)%len(geoms)]
			oh, ow := 2+i%2, 5+i%3
			cs = append(cs, convCase{g: g, batch: 2, c: []int{1, 3, 6, 16}[i%4], n: n,
				h: (oh-1)*g.SH + g.KH - 2*g.PadH, w: (ow-1)*g.SW + g.KW - 2*g.PadW})
		}
	}
	return cs
}

// signedZeroInput draws an NHWC input with about half of it zero, a
// quarter of those -0, and the rest normal of either sign.
func signedZeroInput(rng *rand.Rand, cc convCase) *Tensor {
	x := New(cc.batch, cc.h, cc.w, cc.c)
	for i := range x.data {
		switch rng.Intn(8) {
		case 0:
			x.data[i] = float32(math.Copysign(0, -1))
		case 1, 2, 3:
		default:
			x.data[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// sameBitsExact compares two float32 slices bit for bit, NaN payloads
// included.
func sameBitsExact(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d: avx2 %#x, go %#x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestConvSIMDMatchesGo compares ConvInto and ConvWindowInto on the
// AVX2 block kernels with the portable kernels over parityCases, with
// ±Inf and NaN weights in every third case (so the NaN fallback runs),
// and a ConvWindowInto window starting at every output column.
func TestConvSIMDMatchesGo(t *testing.T) {
	if !hostAVX2 {
		t.Skip("no AVX2 on this host: only the portable kernels run")
	}
	rng := rand.New(rand.NewSource(25))
	for i, cc := range parityCases() {
		x := signedZeroInput(rng, cc)
		w := randKernel(rng, cc.g, cc.c, cc.n)
		if i%3 == 0 {
			sprinkleNonFinite(rng, w, 0.05)
		}
		label := cc.String()
		conv := func(simd bool) (out *Tensor) {
			onPath(simd, func() {
				var err error
				if out, err = ConvInto(nil, x, w, cc.g); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			})
			return out
		}
		want := conv(false)
		sameBitsExact(t, conv(true).data, want.data, label)
		oh, ow := want.shape[1], want.shape[2]
		for x0 := 0; x0 < ow; x0++ {
			y0, x1 := x0%oh, min(ow, x0+1+x0%3)
			window := func(simd bool) *Tensor {
				dst := New(want.shape...)
				dst.Fill(math.Float32frombits(0x7fc0beef))
				onPath(simd, func() {
					if err := ConvWindowInto(dst, x, w, cc.g, y0, oh, x0, x1); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				})
				return dst
			}
			sameBitsExact(t, window(true).data, window(false).data, fmt.Sprintf("%s window [%d,%d)x[%d,%d)", label, y0, oh, x0, x1))
		}
	}
}

// pixelRequant returns a requant that records each pixel's int32
// accumulators in acc, at the pixel's offset in out (recovered from the
// capacity of the output row it is handed).
func pixelRequant(acc []int32, out []int8) func([]int32, []int8) {
	return func(a []int32, outRow []int8) {
		copy(acc[len(out)-cap(outRow):], a)
		foldRequant(a, outRow)
	}
}

// TestQConvSIMDMatchesGo compares the int32 accumulators QConvInto and
// QConvWindowInto hand to requant on the AVX2 block kernels with the
// portable kernels over parityCases, at zero points -128, 0 and 127
// with about half of the input at the zero point, and a window starting
// at every output column.
func TestQConvSIMDMatchesGo(t *testing.T) {
	if !hostAVX2 {
		t.Skip("no AVX2 on this host: only the portable kernels run")
	}
	rng := rand.New(rand.NewSource(26))
	for _, cc := range parityCases() {
		oh, ow := cc.g.OutDims(cc.h, cc.w)
		size := cc.batch * oh * ow * cc.n
		w := make([]int8, cc.g.KH*cc.g.KW*cc.c*cc.n)
		for i := range w {
			w[i] = int8(rng.Intn(256) - 128)
		}
		for _, za := range []int32{-128, 0, 127} {
			x := NewQ(QParams{Scale: 1, Zero: za}, cc.batch, cc.h, cc.w, cc.c)
			for i := range x.data {
				x.data[i] = int8(za)
				if rng.Intn(2) == 0 {
					x.data[i] = int8(rng.Intn(256) - 128)
				}
			}
			label := fmt.Sprintf("%v za=%d", cc, za)
			run := func(simd bool, call func(requant func([]int32, []int8), out []int8) error) []int32 {
				acc, out := make([]int32, size), make([]int8, size)
				for i := range acc {
					acc[i] = math.MinInt32 // pixels a window skips keep it
				}
				onPath(simd, func() {
					if err := call(pixelRequant(acc, out), out); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				})
				return acc
			}
			check := func(call func(requant func([]int32, []int8), out []int8) error, what string) {
				got, want := run(true, call), run(false, call)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s: acc %d: avx2 %d, go %d", label, what, i, got[i], want[i])
					}
				}
			}
			var tmp QScratch
			check(func(rq func([]int32, []int8), out []int8) error {
				return QConvInto(x, za, cc.g, w, cc.n, out, rq, &tmp)
			}, "QConvInto")
			for x0 := 0; x0 < ow; x0++ {
				y0, x1 := x0%oh, min(ow, x0+1+x0%3)
				check(func(rq func([]int32, []int8), out []int8) error {
					return QConvWindowInto(x, za, cc.g, w, cc.n, out, rq, &tmp, y0, oh, x0, x1)
				}, fmt.Sprintf("window [%d,%d)x[%d,%d)", y0, oh, x0, x1))
			}
		}
	}
}

// TestSIMDBoundsCheckPanics hands the block kernels operands shorter
// than their shapes say: the Go-side bounds check must panic before
// the assembly reads past them.
func TestSIMDBoundsCheckPanics(t *testing.T) {
	if !hostAVX2 {
		t.Skip("no AVX2 on this host: only the portable kernels run")
	}
	g := ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1}
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		f()
	}
	short := &Tensor{shape: []int{1, 4, 4, 2}, data: make([]float32, 4*4*2-1)}
	mustPanic("ConvInto", func() { _, _ = ConvInto(nil, short, New(3, 3, 2, 8), g) })
	mustPanic("ConvWindowInto", func() { _ = ConvWindowInto(New(1, 4, 4, 8), short, New(3, 3, 2, 8), g, 0, 4, 0, 4) })
	qshort := &QTensor{shape: []int{1, 4, 4, 2}, data: make([]int8, 4*4*2-1)}
	mustPanic("QConvInto", func() {
		_ = QConvInto(qshort, 0, g, make([]int8, 3*3*2*8), 8, make([]int8, 4*4*8), foldRequant, nil)
	})
	mustPanic("QConvWindowInto", func() {
		_ = QConvWindowInto(qshort, 0, g, make([]int8, 3*3*2*8), 8, make([]int8, 4*4*8), foldRequant, nil, 0, 4, 0, 4)
	})
}
