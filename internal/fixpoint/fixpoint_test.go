package fixpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFormatWidths(t *testing.T) {
	if Q32.Bits() != 32 {
		t.Fatalf("Q32 bits = %d", Q32.Bits())
	}
	if Q16.Bits() != 16 {
		t.Fatalf("Q16 bits = %d", Q16.Bits())
	}
}

func TestRangeAndResolution(t *testing.T) {
	if got := Q32.MaxValue(); math.Abs(got-(math.Exp2(21)-math.Exp2(-10))) > 1e-6 {
		t.Fatalf("Q32 max = %v", got)
	}
	if got := Q32.MinValue(); got != -math.Exp2(21) {
		t.Fatalf("Q32 min = %v", got)
	}
	if got := Q32.Resolution(); got != math.Exp2(-10) {
		t.Fatalf("Q32 resolution = %v", got)
	}
	if got := Q16.Resolution(); got != 0.25 {
		t.Fatalf("Q16 resolution = %v", got)
	}
}

func TestEncodeDecodeExactValues(t *testing.T) {
	for _, f := range []Format{Q32, Q16} {
		for _, v := range []float32{0, 1, -1, 2.5, -3.25, 100, -100} {
			got := f.Decode(f.Encode(v))
			if got != v {
				t.Fatalf("%v: roundtrip(%v) = %v", f, v, got)
			}
		}
	}
}

// Property: quantization error is at most half an LSB for in-range values.
func TestQuantizeErrorBound(t *testing.T) {
	for _, f := range []Format{Q32, Q16} {
		res := f.Resolution()
		check := func(v float32) bool {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
			if float64(v) > f.MaxValue() || float64(v) < f.MinValue() {
				return true
			}
			q := f.Quantize(v)
			return math.Abs(float64(q-v)) <= res/2+1e-9
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
}

func TestEncodeSaturates(t *testing.T) {
	for _, f := range []Format{Q32, Q16} {
		maxRaw := uint64(1)<<(f.Bits()-1) - 1
		big := float32(f.MaxValue() * 10)
		if got := f.Encode(big); got != maxRaw {
			t.Fatalf("%v: encode(+big) = %#x, want %#x", f, got, maxRaw)
		}
		// Decoded saturation may round within one LSB of float32 precision.
		if got := f.Quantize(big); math.Abs(float64(got)-f.MaxValue()) > f.Resolution() {
			t.Fatalf("%v: quantize(+big) = %v, want ~%v", f, got, f.MaxValue())
		}
		if got := f.Quantize(-big); float64(got) != f.MinValue() {
			t.Fatalf("%v: quantize(-big) = %v, want %v", f, got, f.MinValue())
		}
	}
}

func TestEncodeNaNInf(t *testing.T) {
	nan := float32(math.NaN())
	if got := Q32.Quantize(nan); got != 0 {
		t.Fatalf("quantize(NaN) = %v, want 0", got)
	}
	inf := float32(math.Inf(1))
	if got := Q32.Quantize(inf); math.Abs(float64(got)-Q32.MaxValue()) > Q32.Resolution() {
		t.Fatalf("quantize(+Inf) = %v", got)
	}
	if got := Q32.Quantize(float32(math.Inf(-1))); float64(got) != Q32.MinValue() {
		t.Fatalf("quantize(-Inf) = %v", got)
	}
}

// Property: flipping the same bit twice restores the quantized value. The
// Q16 format is exact (16 bits fit in a float32 mantissa); Q21.10 values
// can need up to 31 significant bits, so the intermediate float32 may lose
// low-order bits — allow a relative float32-epsilon tolerance there.
func TestFlipBitInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []Format{Q32, Q16} {
		for trial := 0; trial < 300; trial++ {
			v := float32(rng.NormFloat64() * 50)
			bit := rng.Intn(f.Bits())
			once, err := f.FlipBit(v, bit)
			if err != nil {
				t.Fatal(err)
			}
			twice, err := f.FlipBit(once, bit)
			if err != nil {
				t.Fatal(err)
			}
			want := f.Quantize(v)
			tol := math.Abs(float64(once)) * float64(1.5e-7) * 2
			if math.Abs(float64(twice-want)) > tol {
				t.Fatalf("%v: flip-flip(%v, bit %d) = %v, want %v (tol %v)", f, v, bit, twice, want, tol)
			}
		}
	}
}

// The paper's monotonicity observation: a flip in a higher-order magnitude
// bit produces a deviation at least as large as a flip in a lower-order
// bit of the same (non-negative, zero) starting value.
func TestHighOrderBitsDeviateMore(t *testing.T) {
	f := Q32
	v := float32(0)
	prev := 0.0
	for bit := 0; bit < f.Bits()-1; bit++ { // exclude sign bit
		flipped, err := f.FlipBit(v, bit)
		if err != nil {
			t.Fatal(err)
		}
		dev := math.Abs(float64(flipped - v))
		if dev < prev {
			t.Fatalf("bit %d deviation %v < previous %v", bit, dev, prev)
		}
		prev = dev
	}
}

func TestFlipBitOutOfRange(t *testing.T) {
	if _, err := Q32.FlipBit(1, 32); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Q32.FlipBit(1, -1); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestSignBitFlipNegates(t *testing.T) {
	// Flipping the sign bit of a positive value lands deep negative
	// (two's complement), the classic huge-deviation critical fault.
	f := Q32
	flipped, err := f.FlipBit(100, f.Bits()-1)
	if err != nil {
		t.Fatal(err)
	}
	if flipped >= 0 {
		t.Fatalf("sign flip of +100 = %v, want negative", flipped)
	}
	if math.Abs(float64(flipped)) < 1e6 {
		t.Fatalf("sign flip deviation too small: %v", flipped)
	}
}

func TestString(t *testing.T) {
	if Q32.String() != "Q21.10(32-bit)" {
		t.Fatalf("Q32 = %q", Q32.String())
	}
}
