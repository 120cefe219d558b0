package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/parallel"
)

// convCase is one convolution shape for the implicit-GEMM oracle tests:
// an NHWC input of (batch, h, w, c) and a (KH, KW, c, n) kernel.
type convCase struct {
	g                 ConvGeom
	batch, h, w, c, n int
}

func (cc convCase) String() string {
	return fmt.Sprintf("x[%d %d %d %d] k%dx%d s%dx%d pad%dx%d n=%d",
		cc.batch, cc.h, cc.w, cc.c, cc.g.KH, cc.g.KW, cc.g.SH, cc.g.SW, cc.g.PadH, cc.g.PadW, cc.n)
}

// convCases spans strides 1, 2 and 4 with VALID and SAME padding, 1x1 to
// 8x8 kernels, C in {1, 3, 16} and n in {1, 6, 9, 520} (520 > blockN, so
// the j-blocked path runs), alternating batch 1 and 3, plus a rectangular
// geometry whose padding differs per axis.
func convCases() []convCase {
	var cs []convCase
	for _, s := range []int{1, 2, 4} {
		for _, k := range []int{1, 3, 5, 8} {
			for _, pad := range []int{0, SamePad(k)} {
				for _, c := range []int{1, 3, 16} {
					for _, n := range []int{1, 6, 9, 520} {
						g := ConvGeom{KH: k, KW: k, SH: s, SW: s, PadH: pad, PadW: pad}
						cs = append(cs, convCase{g: g, batch: 1 + 2*(len(cs)%2), h: 9, w: 10, c: c, n: n})
					}
				}
			}
		}
	}
	rect := ConvGeom{KH: 3, KW: 5, SH: 2, SW: 1, PadH: 1, PadW: 2}
	return append(cs, convCase{g: rect, batch: 3, h: 7, w: 6, c: 3, n: 6})
}

// refConv is the fp32 oracle: Im2Col, then the single-tap refMatMul.
func refConv(t testing.TB, x, w *Tensor, g ConvGeom) *Tensor {
	t.Helper()
	cols, err := Im2Col(x, g)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := w.Reshape(cols.shape[1], w.shape[3])
	if err != nil {
		t.Fatal(err)
	}
	return refMatMul(cols, wm)
}

// checkConvInto compares ConvInto, into a given and an allocated dst,
// with refConv bit for bit (NaN for NaN).
func checkConvInto(t testing.TB, x, w *Tensor, g ConvGeom, want *Tensor, label string) {
	t.Helper()
	oh, ow := g.OutDims(x.shape[1], x.shape[2])
	dst := New(x.shape[0], oh, ow, w.shape[3])
	for i := range dst.data {
		dst.data[i] = float32(math.NaN()) // stale contents must be overwritten
	}
	for _, d := range []*Tensor{dst, nil} {
		got, err := ConvInto(d, x, w, g)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, v := range want.data {
			if g := got.data[i]; !sameBits(g, v) {
				t.Fatalf("%s: elem %d: %#x != oracle %#x", label, i, math.Float32bits(g), math.Float32bits(v))
			}
		}
	}
}

// TestConvIntoBitIdentical pins the implicit-GEMM fp32 convolution to
// the im2col + single-tap GEMM oracle over every convCases shape, with
// -0 and zeros in both operands, infinities and random-payload NaNs in
// every other case, at one and two workers.
func TestConvIntoBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(5))
	for i, cc := range convCases() {
		x := randMat(rng, cc.batch*cc.h*cc.w, cc.c)
		w := randMat(rng, cc.g.KH*cc.g.KW*cc.c, cc.n)
		if i%2 == 1 {
			sprinkleNonFinite(rng, x, 0.02)
			sprinkleNonFinite(rng, w, 0.02)
		}
		x.shape = []int{cc.batch, cc.h, cc.w, cc.c}
		w.shape = []int{cc.g.KH, cc.g.KW, cc.c, cc.n}
		parallel.SetWorkers(1)
		want := refConv(t, x, w, cc.g)
		for _, workers := range []int{1, 2} {
			parallel.SetWorkers(workers)
			checkConvInto(t, x, w, cc.g, want, fmt.Sprintf("workers=%d %v", workers, cc))
		}
	}
}

// refQConv is the int8 oracle: an im2col that fills padding taps with the
// zero point, then the single-tap refQMatMul.
func refQConv(x *QTensor, za int32, g ConvGeom, w []int8, n int) []int32 {
	nb, h, wd, c := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutDims(h, wd)
	rows, rowLen := nb*oh*ow, g.KH*g.KW*c
	cols := make([]int8, rows*rowLen)
	for r := 0; r < rows; r++ {
		b, oy, ox := r/(oh*ow), r/ow%oh, r%ow
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				iy, ix := oy*g.SH-g.PadH+ky, ox*g.SW-g.PadW+kx
				for ch := 0; ch < c; ch++ {
					v := int8(za)
					if iy >= 0 && iy < h && ix >= 0 && ix < wd {
						v = x.data[((b*h+iy)*wd+ix)*c+ch]
					}
					cols[r*rowLen+(ky*g.KW+kx)*c+ch] = v
				}
			}
		}
	}
	return refQMatMul(cols, za, rows, rowLen, w, n)
}

// foldAcc folds every byte of an int32 accumulator into one int8, so a
// requantization through it exposes any accumulator difference.
func foldAcc(v int32) int8 { return int8(v ^ v>>8 ^ v>>16 ^ v>>24) }

func foldRequant(acc []int32, outRow []int8) {
	for j, v := range acc {
		outRow[j] = foldAcc(v)
	}
}

// randQConv draws an int8 input and kernel for cc, with about a third of
// the input at the zero point za (the zero-skip path).
func randQConv(rng *rand.Rand, cc convCase) (*QTensor, int32, []int8) {
	za := int32(rng.Intn(256) - 128)
	x := NewQ(QParams{Scale: 1, Zero: za}, cc.batch, cc.h, cc.w, cc.c)
	for i := range x.data {
		x.data[i] = int8(rng.Intn(256) - 128)
		if rng.Intn(3) == 0 {
			x.data[i] = int8(za)
		}
	}
	w := make([]int8, cc.g.KH*cc.g.KW*cc.c*cc.n)
	for i := range w {
		w[i] = int8(rng.Intn(256) - 128)
	}
	return x, za, w
}

// checkQConvInto compares QConvInto, with and without a scratch, with
// the folded oracle accumulators.
func checkQConvInto(t testing.TB, x *QTensor, za int32, g ConvGeom, w []int8, n int, want []int32, label string) {
	t.Helper()
	var tmp QScratch
	for _, s := range []*QScratch{&tmp, nil} {
		got := make([]int8, len(want))
		if err := QConvInto(x, za, g, w, n, got, foldRequant, s); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, v := range want {
			if got[i] != foldAcc(v) {
				t.Fatalf("%s scratch=%t: elem %d: %d != oracle %d", label, s != nil, i, got[i], foldAcc(v))
			}
		}
	}
}

// TestQConvIntoIdentical pins the implicit-GEMM int8 convolution to the
// zero-point-padded im2col + single-tap GEMM oracle over every convCases
// shape at one and two workers.
func TestQConvIntoIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(17))
	for _, cc := range convCases() {
		x, za, w := randQConv(rng, cc)
		want := refQConv(x, za, cc.g, w, cc.n)
		for _, workers := range []int{1, 2} {
			parallel.SetWorkers(workers)
			checkQConvInto(t, x, za, cc.g, w, cc.n, want, fmt.Sprintf("workers=%d %v", workers, cc))
		}
	}
}

// TestQConvIntoPadsWithZeroPoint checks that padding contributes exactly
// real 0.0: with an all-ones kernel, the top-left pixel of a SAME 3x3
// convolution over a 2x2 input sums (x - za) over its four in-bounds
// taps only.
func TestQConvIntoPadsWithZeroPoint(t *testing.T) {
	za := int32(-128)
	x := NewQ(QParams{Scale: 1, Zero: za}, 1, 2, 2, 1)
	copy(x.data, []int8{10, 20, 30, 40})
	g := ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1}
	w := []int8{1, 1, 1, 1, 1, 1, 1, 1, 1}
	var accs []int32
	requant := func(acc []int32, outRow []int8) {
		accs = append(accs, acc[0])
	}
	out := make([]int8, 4)
	if err := QConvInto(x, za, g, w, 1, out, requant, nil); err != nil {
		t.Fatal(err)
	}
	if want := int32(10+20+30+40) - 4*za; len(accs) != 4 || accs[0] != want {
		t.Fatalf("pixel accumulators %v, want the top-left one %d", accs, want)
	}
}

// TestConvIntoRejectsBadShapes checks the shape validation of both
// implicit-GEMM kernels.
func TestConvIntoRejectsBadShapes(t *testing.T) {
	g := ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}
	x, w := New(1, 5, 5, 2), New(3, 3, 2, 4)
	if _, err := ConvInto(New(1, 3, 3, 5), x, w, g); err == nil {
		t.Fatal("ConvInto accepted a dst with the wrong channel count")
	}
	if _, err := ConvInto(nil, x, New(3, 3, 3, 4), g); err == nil {
		t.Fatal("ConvInto accepted a kernel with the wrong input depth")
	}
	if _, err := ConvInto(nil, New(1, 2, 2, 2), w, g); err == nil {
		t.Fatal("ConvInto accepted an input smaller than its VALID kernel")
	}
	qx := NewQ(QParams{Scale: 1}, 1, 5, 5, 2)
	if err := QConvInto(qx, 0, g, make([]int8, 3*3*2*4), 4, make([]int8, 9*4-1), foldRequant, nil); err == nil {
		t.Fatal("QConvInto accepted a short output")
	}
	if err := QConvInto(qx, 0, g, make([]int8, 3*3*2*4-1), 4, make([]int8, 9*4), foldRequant, nil); err == nil {
		t.Fatal("QConvInto accepted a short kernel")
	}
}

// FuzzConvIntoBitIdentical draws a random convolution shape from the
// fuzzer's bytes and checks both implicit-GEMM kernels against their
// im2col oracles: ConvInto bit for bit with non-finite operands,
// QConvInto exactly.
func FuzzConvIntoBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 1, 2, 5, 0, 4, 4})   // 3x3 SAME stride 1
	f.Add(int64(2), []byte{4, 1, 0, 0, 0, 1, 7, 7})   // 5x5 stride 2
	f.Add(int64(3), []byte{7, 3, 1, 15, 20, 2, 8, 9}) // 8x8 stride 4, batch 3
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		at := func(i, mod int) int {
			if i < len(shape) {
				return int(shape[i]) % mod
			}
			return 0
		}
		k := 1 + at(0, 8)
		kw := max(1, k-at(5, 3))
		g := ConvGeom{KH: k, KW: kw, SH: 1 + at(1, 4), SW: 1 + at(1, 4)}
		if at(2, 2) == 1 {
			g.PadH, g.PadW = SamePad(k), SamePad(kw)
		}
		cc := convCase{g: g, batch: 1 + at(5, 3), c: 1 + at(3, 16), n: 1 + at(4, 24)}
		cc.h = k + at(6, 8)
		cc.w = kw + at(7, 8)
		rng := rand.New(rand.NewSource(seed))
		x := randMat(rng, cc.batch*cc.h*cc.w, cc.c)
		w := randMat(rng, k*kw*cc.c, cc.n)
		sprinkleNonFinite(rng, x, 0.01)
		sprinkleNonFinite(rng, w, 0.01)
		x.shape = []int{cc.batch, cc.h, cc.w, cc.c}
		w.shape = []int{k, kw, cc.c, cc.n}
		checkConvInto(t, x, w, g, refConv(t, x, w, g), cc.String())
		qx, za, qw := randQConv(rng, cc)
		checkQConvInto(t, qx, za, g, qw, cc.n, refQConv(qx, za, g, qw, cc.n), cc.String())
	})
}
