package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Parity tests for the AVX2 epilogue kernel (epilogueAVX2 under
// canon.applyTo): every case runs on the Go loop and on the kernel, in
// place and from a separate source, and the outputs are compared bit
// for bit, guard elements around the span included.

// epilogueValue draws a value from the classes the kernel must carry
// through bit for bit: quiet and signalling NaNs with payloads of either
// sign, ±0, ±Inf, subnormals and normals of either sign.
func epilogueValue(rng *rand.Rand) float32 {
	sign := uint32(rng.Intn(2)) << 31
	switch rng.Intn(8) {
	case 0:
		return math.Float32frombits(sign | 0x7fc00000 | uint32(rng.Intn(1<<22)))
	case 1:
		return math.Float32frombits(sign | 0x7f800000 | uint32(1+rng.Intn(1<<22-1)))
	case 2:
		return math.Float32frombits(sign)
	case 3:
		return math.Float32frombits(sign | 0x7f800000)
	case 4:
		return math.Float32frombits(sign | uint32(1+rng.Intn(1<<23-1)))
	default:
		return float32(rng.NormFloat64() * 2)
	}
}

// epilogueBounds are clamp bounds the kernel takes (lo < hi, lo == hi,
// ±0 pairs, infinite ends) and ones that must stay on the Go loop
// (inverted or NaN).
var epilogueBounds = [][2]float32{
	{-0.5, 1.25},
	{0, 6},
	{0.75, 0.75},
	{0, float32(math.Copysign(0, -1))},
	{float32(math.Copysign(0, -1)), 0},
	{float32(math.Inf(-1)), float32(math.Inf(1))},
	{float32(math.Inf(-1)), 0},
	{2, -1},
	{float32(math.NaN()), 1},
	{-1, float32(math.NaN())},
}

// epilogueCase is one kernel call: the stages of cn over pixels pixels
// of c channels (or n elements without a bias).
type epilogueCase struct {
	cn      canon
	n       int
	inPlace bool
}

func (ec epilogueCase) String() string {
	return fmt.Sprintf("bias=%t(c=%d) relu=%t clamp=%t[%g,%g] n=%d inplace=%t",
		ec.cn.vec != nil, ec.cn.c, ec.cn.relu, ec.cn.clamp, ec.cn.lo, ec.cn.hi, ec.n, ec.inPlace)
}

// run applies the case to src on the current path and returns the whole
// destination buffer: guard elements, the span, guard elements.
func (ec epilogueCase) run(src []float32) []float32 {
	const guard = 9
	buf := make([]float32, len(src)+2*guard)
	for i := range buf {
		buf[i] = math.Float32frombits(0x7fa5a5a5)
	}
	dst := buf[guard : guard+len(src)]
	if ec.inPlace {
		copy(dst, src)
		ec.cn.applyTo(dst, dst)
	} else {
		ec.cn.applyTo(buf[guard:], src)
	}
	return buf
}

// checkEpilogueCase draws the source and, for a bias, the vector, and
// compares the two paths.
func checkEpilogueCase(t *testing.T, rng *rand.Rand, ec epilogueCase) {
	t.Helper()
	src := make([]float32, ec.n)
	for i := range src {
		src[i] = epilogueValue(rng)
	}
	if ec.cn.vec != nil {
		for i := range ec.cn.vec {
			ec.cn.vec[i] = epilogueValue(rng)
		}
	}
	var outs [][]float32
	for _, simd := range kernelPaths() {
		onPath(simd, func() { outs = append(outs, ec.run(src)) })
	}
	for _, got := range outs[1:] {
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(outs[0][i]) {
				t.Fatalf("%v: buffer element %d: avx2 %#x != go %#x", ec, i,
					math.Float32bits(got[i]), math.Float32bits(outs[0][i]))
			}
		}
	}
}

// epilogueCaseFor builds the case that stage subset mask (bit 0 bias,
// bit 1 ReLU, bit 2 clamp), c channels, span size and bounds index pick.
func epilogueCaseFor(mask, c, size, bounds int, inPlace bool) epilogueCase {
	ec := epilogueCase{n: size, inPlace: inPlace}
	if mask&1 != 0 {
		ec.cn.vec, ec.cn.c = make([]float32, c), c
		ec.n = size * c
	}
	ec.cn.relu = mask&2 != 0
	if mask&4 != 0 {
		b := epilogueBounds[bounds%len(epilogueBounds)]
		ec.cn.clamp, ec.cn.lo, ec.cn.hi = true, b[0], b[1]
	}
	return ec
}

// TestEpilogueSIMDMatchesGo sweeps every subset of {bias, ReLU, clamp},
// c from 1 to 70, spans of 0 to 3 pixels (0 to 70 elements without a
// bias), every bounds pair and both aliasings.
func TestEpilogueSIMDMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for mask := 0; mask < 8; mask++ {
		for c := 1; c <= 70; c++ {
			for _, inPlace := range []bool{true, false} {
				size := c
				if mask&1 != 0 {
					size = c % 4
				}
				checkEpilogueCase(t, rng, epilogueCaseFor(mask, c, size, c, inPlace))
			}
		}
	}
}

// TestEpilogueBiasSpanNotWholePixels checks that a bias span that ends
// inside a pixel takes the Go loop, which adds the first channels' bias
// to the partial pixel.
func TestEpilogueBiasSpanNotWholePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []int{3, 8, 12} {
		ec := epilogueCaseFor(3, c, 2, 0, false)
		ec.n = 2*c + 1
		checkEpilogueCase(t, rng, ec)
	}
}

// FuzzEpilogueBitIdentical compares the AVX2 epilogue kernel with the
// Go loop on a stage subset, channel count, span length, bounds pair and
// aliasing drawn from shape, with NaN payloads, ±0, ±Inf and subnormals
// in the data and the bias.
func FuzzEpilogueBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{7, 5, 3, 0, 0})  // bias+relu+clamp, c=6
	f.Add(int64(2), []byte{1, 63, 2, 0, 1}) // bias, c=64
	f.Add(int64(3), []byte{6, 0, 40, 2, 0}) // relu+clamp, lo == hi
	f.Add(int64(4), []byte{4, 0, 17, 7, 1}) // clamp, inverted bounds
	f.Add(int64(5), []byte{5, 69, 1, 8, 0}) // bias+clamp, c=70, NaN lo
	f.Add(int64(6), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		at := func(i, mod int) int {
			if i < len(shape) {
				return int(shape[i]) % mod
			}
			return 0
		}
		ec := epilogueCaseFor(at(0, 8), 1+at(1, 70), at(2, 80), at(3, len(epilogueBounds)), at(4, 2) == 0)
		checkEpilogueCase(t, rand.New(rand.NewSource(seed)), ec)
	})
}
