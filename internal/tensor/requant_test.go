package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Parity tests for the int8 boundary kernels: Requant and QuantizeInto
// run on every kernel path this host has and are compared bit for bit
// with the scalar rules (clampRoundQ, QParams.Quantize), with guard
// bytes around the output to catch a write past the row.

const (
	boundaryGuard    = 9
	boundarySentinel = int8(0x5a)
)

// requantAcc draws an accumulator or correction: the int32 extremes
// (where acc-corr wraps), random bit patterns, or a value that lands in
// or near the int8 range at scale msc.
func requantAcc(rng *rand.Rand, msc float32) int32 {
	switch rng.Intn(6) {
	case 0:
		return []int32{math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1, 0, -1, 1}[rng.Intn(7)]
	case 1:
		return int32(rng.Uint32())
	default:
		m := math.Abs(float64(msc))
		if m == 0 || math.IsInf(m, 0) || math.IsNaN(m) || m > 1e3 || m < 1e-7 {
			return int32(rng.Intn(601) - 300)
		}
		return int32(math.Max(math.MinInt32, math.Min(math.MaxInt32, rng.NormFloat64()*150/m)))
	}
}

// requantScales are the multipliers msc the requantize tests run: 0
// and -0, subnormals, ±Inf, NaN, exact halves (whose odd sums land on
// .5 ties), typical GEMM scales and ones too large for any sum to stay
// in range.
var requantScales = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, 1e-40, -1e-40,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	0.5, 0.25, -0.5,
	1e-3, 3.7e-4, 2.2e-5, -7.1e-4,
	1, 1e10,
}

// requantLimits are the (zo, qlo, qhi) triples the requantize tests
// run: the full int8 range, a ReLU floor at zo > -128, qlo == qhi,
// narrow restriction bounds, and limits outside int8 or inverted, which
// stay on the Go loop.
var requantLimits = [][3]int32{
	{0, -128, 127},
	{-128, -128, 127},
	{127, -128, 127},
	{-37, -37, 127},
	{12, 12, 90},
	{5, 3, 3},
	{-128, -128, -128},
	{127, 127, 127},
	{-20, -90, 40},
	{0, 5, -3},
	{0, -200, 300},
}

// checkRequant runs Requant on an n-long row on every kernel path and
// compares it with clampRoundQ element by element.
func checkRequant(t *testing.T, rng *rand.Rand, n int, msc float32, lim [3]int32) {
	t.Helper()
	zo, qlo, qhi := lim[0], lim[1], lim[2]
	acc, corr := make([]int32, n), make([]int32, n)
	for j := range acc {
		acc[j], corr[j] = requantAcc(rng, msc), requantAcc(rng, msc)
		if rng.Intn(3) == 0 {
			corr[j] = 0
		}
	}
	want := make([]int8, n)
	for j := range want {
		want[j] = clampRoundQ(float32(zo)+float32(float32(acc[j]-corr[j])*msc), qlo, qhi)
	}
	for _, simd := range kernelPaths() {
		buf := make([]int8, n+2*boundaryGuard)
		for i := range buf {
			buf[i] = boundarySentinel
		}
		onPath(simd, func() { Requant(acc, corr, buf[boundaryGuard:boundaryGuard+n], zo, msc, qlo, qhi) })
		label := fmt.Sprintf("%s n=%d msc=%g (%#x) zo=%d [%d,%d]", pathName(simd), n, msc, math.Float32bits(msc), zo, qlo, qhi)
		checkBoundaryOut(t, label, buf, want, func(j int) string {
			return fmt.Sprintf("acc %d corr %d", acc[j], corr[j])
		})
	}
}

// checkBoundaryOut compares the guarded output buf with want and checks
// the guard bytes on both sides.
func checkBoundaryOut(t *testing.T, label string, buf, want []int8, in func(j int) string) {
	t.Helper()
	n := len(want)
	for i := range buf {
		j := i - boundaryGuard
		if j < 0 || j >= n {
			if buf[i] != boundarySentinel {
				t.Fatalf("%s: wrote guard byte %d (row element %d)", label, i, j)
			}
			continue
		}
		if buf[i] != want[j] {
			t.Fatalf("%s: elem %d (%s): got %d, want %d", label, j, in(j), buf[i], want[j])
		}
	}
}

// TestRequantSIMDMatchesGo compares Requant with clampRoundQ on rows of
// 0 to 70 accumulators (the n < 8 Go loop and every overlapping 8-lane
// tail) over every multiplier of requantScales and limit triple of
// requantLimits.
func TestRequantSIMDMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 70; n++ {
		for _, msc := range requantScales {
			for _, lim := range requantLimits {
				checkRequant(t, rng, n, msc, lim)
			}
		}
	}
}

// TestRequantRoundsProductBeforeSum pins the two roundings of
// zo + float32(a-corr)*msc on a row where a fused multiply-add differs:
// 5·0.7f is 3.5-2^-24 exactly, which rounds to 3.5, so -3 + 3.5 = 0.5
// rounds half away from zero to 1; fused, -3 + (3.5-2^-24) falls below
// the tie and rounds to 0.
func TestRequantRoundsProductBeforeSum(t *testing.T) {
	msc := math.Float32frombits(0x3f333333) // 0.7f
	if q := clampRoundQ(-3+float32(float32(5)*msc), -128, 127); q != 1 {
		t.Fatalf("oracle gives %d, want 1", q)
	}
	for n := 1; n <= 24; n++ {
		acc, corr, out := make([]int32, n), make([]int32, n), make([]int8, n)
		for j := range acc {
			acc[j], corr[j] = int32(5+j), int32(j)
		}
		for _, simd := range kernelPaths() {
			onPath(simd, func() { Requant(acc, corr, out, -3, msc, -128, 127) })
			for j, q := range out {
				if q != 1 {
					t.Fatalf("%s n=%d: elem %d = %d, want 1", pathName(simd), n, j, q)
				}
			}
		}
	}
}

// quantizeValue draws a feed value for scale p: the special values of
// epilogueValue, a value exactly k±0.5 in the quantized domain, or one
// in or near the int8 range.
func quantizeValue(rng *rand.Rand, p QParams) float32 {
	switch rng.Intn(4) {
	case 0:
		return epilogueValue(rng)
	case 1:
		k := float32(rng.Intn(300)-150) + 0.5
		if rng.Intn(2) == 0 {
			k = -k
		}
		return (k - float32(p.Zero)) * p.Scale
	default:
		return float32(rng.NormFloat64()*150) * p.Scale
	}
}

// quantizeParams are the parameters the quantize tests run: power-of-two
// scales (under which the k±0.5 values are exact ties), typical feed
// scales, tiny, subnormal and huge scales, 0 and negative scales, and
// zero points at and past the ends of int8.
var quantizeParams = []QParams{
	{Scale: 1.0 / 128, Zero: 0},
	{Scale: 0.25, Zero: -128},
	{Scale: 1.0 / 255, Zero: -128},
	{Scale: 0.0392, Zero: 17},
	{Scale: 3.1, Zero: 127},
	{Scale: 1e-38, Zero: 0},
	{Scale: math.SmallestNonzeroFloat32, Zero: -3},
	{Scale: 1e38, Zero: 5},
	{Scale: 0, Zero: 0},
	{Scale: -0.5, Zero: 2},
	{Scale: 0.125, Zero: 300},
	{Scale: 0.125, Zero: -300},
}

// checkQuantize runs QuantizeInto on n values under p on every kernel
// path and compares it with QParams.Quantize element by element.
func checkQuantize(t *testing.T, rng *rand.Rand, n int, p QParams) {
	t.Helper()
	x := New(n)
	want := make([]int8, n)
	for i := range x.data {
		x.data[i] = quantizeValue(rng, p)
		want[i] = p.Quantize(x.data[i])
	}
	for _, simd := range kernelPaths() {
		buf := make([]int8, n+2*boundaryGuard)
		for i := range buf {
			buf[i] = boundarySentinel
		}
		dst, err := QFromSlice(buf[boundaryGuard:boundaryGuard+n], p, n)
		if err != nil {
			t.Fatal(err)
		}
		onPath(simd, func() {
			if _, err := QuantizeInto(dst, x); err != nil {
				t.Fatal(err)
			}
		})
		label := fmt.Sprintf("%s n=%d %+v", pathName(simd), n, p)
		checkBoundaryOut(t, label, buf, want, func(i int) string {
			return fmt.Sprintf("%g (%#x)", x.data[i], math.Float32bits(x.data[i]))
		})
	}
}

// TestQuantizeIntoSIMDMatchesGo compares QuantizeInto with
// QParams.Quantize on 0 to 70 values and on a feed-sized 3072, with NaN
// payloads, ±Inf, ±0, subnormals and exact k±0.5 ties in the values,
// under every parameter set of quantizeParams.
func TestQuantizeIntoSIMDMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range quantizeParams {
		for n := 0; n <= 70; n++ {
			checkQuantize(t, rng, n, p)
		}
		checkQuantize(t, rng, 3072, p)
	}
}

// FuzzRequantBitIdentical draws a row length, multiplier, limits and
// quantization parameters from the fuzzer's bytes and checks Requant
// against clampRoundQ and QuantizeInto against QParams.Quantize on
// every kernel path.
func FuzzRequantBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{16, 0, 0x80, 0xff, 0x6f, 0x3a, 0, 0, 0x80, 0x3b, 0})
	f.Add(int64(2), []byte{13, 90, 200, 100, 0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x7f, 127})
	f.Add(int64(3), []byte{70, 5, 5, 5, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0, 128})
	f.Add(int64(4), []byte{9, 128, 0, 255, 1, 0, 0, 0, 0, 0, 0, 0x3f})
	f.Add(int64(5), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		at := func(i int) byte {
			if i < len(shape) {
				return shape[i]
			}
			return 0
		}
		word := func(i int) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32([]byte{at(i), at(i + 1), at(i + 2), at(i + 3)}))
		}
		n := int(at(0)) % 71
		zo, qlo, qhi := int32(int8(at(1))), int32(int8(at(2))), int32(int8(at(3)))
		if qlo > qhi {
			qlo, qhi = qhi, qlo
		}
		rng := rand.New(rand.NewSource(seed))
		checkRequant(t, rng, n, word(4), [3]int32{zo, qlo, qhi})
		checkQuantize(t, rng, n, QParams{Scale: word(8), Zero: int32(int8(at(12)))})
	})
}
