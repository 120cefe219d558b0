package ops

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

func TestClipPolicyClip(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		op := NewClip(0, 10)
		in := tensor.MustFromSlice([]float32{-5, 0, 5, 10, 1e9}, 5)
		out, err := op.Eval([]*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		want := []float32{0, 0, 5, 10, 10}
		for i, w := range want {
			if out.Data()[i] != w {
				t.Fatalf("clip = %v, want %v", out.Data(), want)
			}
		}
		// Input must not be mutated (the graph may have other consumers).
		if in.Data()[4] != 1e9 {
			t.Fatal("clip mutated its input")
		}
	})
}

func TestClipPolicyZero(t *testing.T) {
	op := &ClipOp{Low: 0, High: 10, Policy: PolicyZero}
	in := tensor.MustFromSlice([]float32{-5, 5, 1e9}, 3)
	out, err := op.Eval([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 5, 0}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("zero-policy = %v, want %v", out.Data(), want)
		}
	}
}

func TestClipPolicyRandomInBound(t *testing.T) {
	op := &ClipOp{Low: 2, High: 8, Policy: PolicyRandom}
	in := tensor.MustFromSlice([]float32{-100, 5, 1e9, 1e9, -1e9}, 5)
	out, err := op.Eval([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[1] != 5 {
		t.Fatal("in-bound value must pass through")
	}
	for _, i := range []int{0, 2, 3, 4} {
		v := out.Data()[i]
		if v < 2 || v > 8 {
			t.Fatalf("random replacement %v outside [2,8]", v)
		}
	}
}

func TestClipPolicyRandomDeterministicPerOp(t *testing.T) {
	in := tensor.MustFromSlice([]float32{100, 100, 100}, 3)
	a, _ := (&ClipOp{Low: 0, High: 1, Policy: PolicyRandom}).Eval([]*tensor.Tensor{in})
	b, _ := (&ClipOp{Low: 0, High: 1, Policy: PolicyRandom}).Eval([]*tensor.Tensor{in})
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("fresh ops with same config must produce identical streams")
		}
	}
}

func TestClipInvalidBounds(t *testing.T) {
	op := &ClipOp{Low: 5, High: 1, Policy: PolicyClip}
	if _, err := op.Eval([]*tensor.Tensor{tensor.New(2)}); err == nil {
		t.Fatal("want low>high error")
	}
}

// Property (the paper's fault-correction invariant): for any faulty value
// and any bounds lo<=hi, the clipped output deviates from the fault-free
// value by no more than the fault-free value's own distance to the bounds,
// i.e. clipping can never increase the deviation of an in-range value.
func TestClipNeverIncreasesDeviation(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		f := func(clean, fault float32, lo, hi float32) bool {
			if lo > hi {
				lo, hi = hi, lo
			}
			if clean < lo || clean > hi {
				return true // only meaningful when the clean value is in range
			}
			op := NewClip(lo, hi)
			in := tensor.MustFromSlice([]float32{fault}, 1)
			out, err := op.Eval([]*tensor.Tensor{in})
			if err != nil {
				return false
			}
			devBefore := abs64(float64(fault - clean))
			devAfter := abs64(float64(out.Data()[0] - clean))
			return devAfter <= devBefore+1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatal(err)
		}
	})
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestClipGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := tensor.New(2, 4).Randn(rng, 2)
	// Keep probes away from the clip boundary kinks.
	for i, v := range x.Data() {
		if v > 0.9 && v < 1.1 {
			x.Data()[i] = 0.5
		}
		if v < -0.9 && v > -1.1 {
			x.Data()[i] = -0.5
		}
	}
	checkGrad(t, NewClip(-1, 1), []*tensor.Tensor{x}, []int{0}, 2e-2)
}

func TestPolicyString(t *testing.T) {
	if PolicyClip.String() != "clip" || PolicyZero.String() != "zero" || PolicyRandom.String() != "random" {
		t.Fatal("policy strings wrong")
	}
	if Policy(99).String() != "Policy(99)" {
		t.Fatal("unknown policy string wrong")
	}
}

// TestClipPolicyClipMatchesScalarRule pins the default policy's planned
// kernel to the scalar rule (lo if v < lo, else hi if v > hi, else v)
// bit for bit on NaN, ±0 and ±Inf inputs, under bounds that include
// lo == hi, a ±0 pair and NaN ends (which the AVX2 clamp must leave to
// the Go loop), on a window of pixels that start mid-value.
func TestClipPolicyClipMatchesScalarRule(t *testing.T) {
	negZero, nan, inf := float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1))
	vals := []float32{-2, -0.5, negZero, 0, 0.25, 1, 3, nan, -nan, inf, -inf}
	bounds := [][2]float32{{-0.5, 1}, {0.25, 0.25}, {0, negZero}, {negZero, 0}, {nan, 1}, {-1, nan}, {nan, nan}}
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		x := tensor.New(2, 3, 4, 11)
		for i := range x.Data() {
			x.Data()[i] = vals[rng.Intn(len(vals))]
		}
		for _, b := range bounds {
			op := NewClip(b[0], b[1])
			out := tensor.New(x.Shape()...)
			win := graph.Window{Y0: 1, Y1: 3, X0: 1, X1: 4}
			if err := op.EvalInto([]*tensor.Tensor{x}, out, win); err != nil {
				t.Fatal(err)
			}
			for i, v := range out.Data() {
				want := float32(0)
				if p := i / 11; p/4%3 >= win.Y0 && p%4 >= win.X0 {
					want = x.Data()[i]
					if want < b[0] {
						want = b[0]
					} else if want > b[1] {
						want = b[1]
					}
				}
				if math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("bounds %v: element %d of %g: %#x, want %#x", b, i, x.Data()[i], math.Float32bits(v), math.Float32bits(want))
				}
			}
		}
	})
}
