package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestQParamsForCoversRangeAndZero(t *testing.T) {
	cases := []struct{ lo, hi float64 }{
		{-3, 5}, {0, 10}, {-7, 0}, {0.5, 2}, {-2, -0.25}, {-1e-4, 1e-4},
	}
	for _, c := range cases {
		p := QParamsFor(c.lo, c.hi)
		if p.Scale <= 0 {
			t.Fatalf("QParamsFor(%g,%g): scale %g", c.lo, c.hi, p.Scale)
		}
		if p.Zero < -128 || p.Zero > 127 {
			t.Fatalf("QParamsFor(%g,%g): zero %d out of int8", c.lo, c.hi, p.Zero)
		}
		// Real zero must be exactly representable.
		if got := p.Dequantize(int8(p.Zero)); got != 0 {
			t.Fatalf("QParamsFor(%g,%g): zero point dequantizes to %g", c.lo, c.hi, got)
		}
		// Values inside the range round-trip within half a step.
		for _, v := range []float64{c.lo, c.hi, (c.lo + c.hi) / 2} {
			vv := float32(v)
			back := p.Dequantize(p.Quantize(vv))
			if math.Abs(float64(back-vv)) > float64(p.Scale)*0.51+1e-7 {
				t.Fatalf("QParamsFor(%g,%g): %g -> %g (scale %g)", c.lo, c.hi, vv, back, p.Scale)
			}
		}
	}
}

func TestQParamsDegenerate(t *testing.T) {
	for _, p := range []QParams{
		QParamsFor(0, 0),
		QParamsFor(math.Inf(-1), math.Inf(1)),
		QParamsFor(math.NaN(), 1),
		QParamsSymmetric(0),
	} {
		if p.Scale != 1 || p.Zero != 0 {
			t.Fatalf("degenerate params = %+v, want {1 0}", p)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	p := QParamsFor(-1, 1)
	if q := p.Quantize(100); q != 127 {
		t.Fatalf("over-range quantized to %d", q)
	}
	if q := p.Quantize(-100); q != -128 {
		t.Fatalf("under-range quantized to %d", q)
	}
	if q := p.Quantize(float32(math.NaN())); q != -128 {
		t.Fatalf("NaN quantized to %d", q)
	}
}

func TestQLutIdentity(t *testing.T) {
	p := QParamsFor(-2, 2)
	lut := QLut(p, p, nil)
	for i := range lut {
		if got, want := lut[i], int8(i-128); got != want {
			t.Fatalf("identity lut[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestQMatMulMatchesFloat checks the int8 GEMM against the float
// product of the dequantized operands: with exact int32 accumulation
// the only error is the operands' own quantization noise.
func TestQMatMulMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 5, 17, 9
	af := New(m, k).Randn(rng, 1)
	wf := New(k, n).Randn(rng, 0.5)
	pa := QParamsFor(float64(af.Min()), float64(af.Max()))
	maxW := math.Max(math.Abs(float64(wf.Min())), float64(wf.Max()))
	pw := QParamsSymmetric(maxW)
	aq := Quantize(af, pa)
	wq := Quantize(wf, pw)

	// Reference: float matmul of the dequantized int8 operands.
	ref, err := MatMul(aq.Dequantize(), wq.Dequantize())
	if err != nil {
		t.Fatal(err)
	}
	po := QParamsFor(float64(ref.Min()), float64(ref.Max()))

	// Int8 GEMM: the accumulator is already zero-point-corrected.
	out := make([]int8, m*n)
	err = QMatMul(aq.Data(), pa.Zero, m, k, wq.Data(), n, out, func(acc []int32, outRow []int8) {
		for j, a := range acc {
			real32 := float32(a) * pa.Scale * pw.Scale
			outRow[j] = po.Quantize(real32)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		got := po.Dequantize(out[i])
		want := ref.Data()[i]
		if math.Abs(float64(got-want)) > float64(po.Scale)*0.51+1e-6 {
			t.Fatalf("element %d: int8 %g vs float %g (step %g)", i, got, want, po.Scale)
		}
	}
}

// TestQMatMulDeterministicAcrossWorkers pins bit-identical outputs at
// every worker count (trivially true for integer accumulation, but the
// sharding must not misroute rows).
func TestQMatMulDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 33, 40, 21
	a := make([]int8, m*k)
	w := make([]int8, k*n)
	for i := range a {
		a[i] = int8(rng.Intn(256) - 128)
	}
	for i := range w {
		w[i] = int8(rng.Intn(256) - 128)
	}
	requant := func(acc []int32, outRow []int8) {
		for j, v := range acc {
			outRow[j] = int8(v >> 8)
		}
	}
	run := func() []int8 {
		out := make([]int8, m*n)
		if err := QMatMul(a, -3, m, k, w, n, out, requant, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run()
	for i := 0; i < 3; i++ {
		got := run()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: element %d differs", i, j)
			}
		}
	}
}

func TestQScratchRecycles(t *testing.T) {
	var s QScratch
	b1 := s.Int8(16)
	w1 := s.Int32(8)
	s.Reset()
	b2 := s.Int8(10)
	w2 := s.Int32(4)
	if &b1[0] != &b2[0] || &w1[0] != &w2[0] {
		t.Fatal("scratch did not recycle buffers")
	}
}

// FuzzQParamsRoundTrip checks, for arbitrary calibration ranges and
// values, that quantization stays in-range, round-trips within half a
// step for in-range values, and is idempotent.
func FuzzQParamsRoundTrip(f *testing.F) {
	f.Add(-3.0, 5.0, 1.25)
	f.Add(0.0, 0.0, 0.0)
	f.Add(-1e9, 1e9, 123456.0)
	f.Fuzz(func(t *testing.T, lo, hi, v float64) {
		p := QParamsFor(lo, hi)
		if p.Scale <= 0 || p.Zero < -128 || p.Zero > 127 {
			t.Fatalf("invalid params %+v for [%g,%g]", p, lo, hi)
		}
		q := p.Quantize(float32(v))
		back := p.Dequantize(q)
		// Idempotence: re-quantizing a representable value is exact.
		if p.Quantize(back) != q {
			t.Fatalf("requantize(%g) = %d, first pass %d", back, p.Quantize(back), q)
		}
		// In-range finite values round-trip within half a step.
		if !math.IsNaN(v) && !math.IsInf(v, 0) && lo <= hi && v >= lo && v <= hi {
			limit := float64(p.Scale)*0.5 + math.Abs(v)*1e-5 + 1e-6
			if diff := math.Abs(float64(back) - float64(float32(v))); diff > limit {
				t.Fatalf("round trip [%g,%g]: %g -> %d -> %g (err %g > %g)", lo, hi, v, q, back, diff, limit)
			}
		}
	})
}
