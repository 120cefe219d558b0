package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/parallel"
)

// Tests of ConvInto's pixel pairs. A pair walks the union of its two
// pixels' nonzero taps, so wherever only one pixel's input is zero it
// adds 0·w, and it falls back to convPixel when either output row holds
// a NaN. These tests compare every output against refConv (NaN for NaN)
// and against pixelConv, which runs convPixel on every pixel, bit for
// bit with NaN payloads.

// pixelConv is the single-pixel oracle: convPixel for every output pixel
// in turn, with no pairs.
func pixelConv(t testing.TB, x, w *Tensor, g ConvGeom) *Tensor {
	t.Helper()
	d, err := convCheck(x, w, g)
	if err != nil {
		t.Fatal(err)
	}
	out := New(x.shape[0], d.oh, d.ow, d.n)
	for r := 0; r < x.shape[0]*d.oh*d.ow; r++ {
		b, iy, ky0, ky1, ix := d.rowAt(r)
		kx0, kx1, wy1 := d.cols(ix, ky0, ky1)
		convPixel(x.data, w.data, out.data[r*d.n:(r+1)*d.n], d, b, iy, ix, ky0, wy1, kx0, kx1)
	}
	return out
}

// reluInput draws an NHWC input that looks like a ReLU output: about
// half of it 0 (a quarter of those -0), the rest positive, so a pair's
// taps are often zero in one pixel only.
func reluInput(rng *rand.Rand, batch, h, w, c int) *Tensor {
	x := New(batch, h, w, c)
	for i := range x.data {
		switch rng.Intn(8) {
		case 0:
			x.data[i] = float32(math.Copysign(0, -1))
		case 1, 2, 3:
		default:
			x.data[i] = float32(math.Abs(rng.NormFloat64()))
		}
	}
	return x
}

// randKernel draws a (KH,KW,C,F) kernel with about a sixth of it zero.
func randKernel(rng *rand.Rand, g ConvGeom, c, n int) *Tensor {
	w := randMat(rng, g.KH*g.KW*c, n)
	w.shape = []int{g.KH, g.KW, c, n}
	return w
}

// checkPairs runs ConvInto at one and two workers and compares it with
// refConv (NaN for NaN) and with pixelConv (every bit).
func checkPairs(t *testing.T, x, w *Tensor, g ConvGeom, label string) {
	t.Helper()
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	ref, single := refConv(t, x, w, g), pixelConv(t, x, w, g)
	for _, workers := range []int{1, 2} {
		parallel.SetWorkers(workers)
		got, err := ConvInto(nil, x, w, g)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, v := range got.data {
			if !sameBits(v, ref.data[i]) {
				t.Fatalf("workers=%d %s: elem %d: %#x != oracle %#x", workers, label, i, math.Float32bits(v), math.Float32bits(ref.data[i]))
			}
			if math.Float32bits(v) != math.Float32bits(single.data[i]) {
				t.Fatalf("workers=%d %s: elem %d: %#x != single-pixel %#x", workers, label, i, math.Float32bits(v), math.Float32bits(single.data[i]))
			}
		}
	}
}

// TestConvPairsMatchSinglePixels covers ReLU-like inputs over strides 1
// to 3, VALID and SAME padding, kernels 1x1 to 5x5, odd and even output
// widths, C in {1, 5} and n in {3, 520} (520 > blockN, so pairs run
// j-blocked too), with non-finite weights in every other case.
func TestConvPairsMatchSinglePixels(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		i := 0
		for _, s := range []int{1, 2, 3} {
			for _, k := range []int{1, 2, 3, 5} {
				for _, pad := range []int{0, SamePad(k)} {
					for _, wd := range []int{k, k + 3, k + 6, k + 7} {
						for _, cn := range [][2]int{{1, 3}, {5, 3}, {5, 520}} {
							g := ConvGeom{KH: k, KW: k, SH: s, SW: s, PadH: pad, PadW: pad}
							x := reluInput(rng, 1+i%2, k+2, wd, cn[0])
							w := randKernel(rng, g, cn[0], cn[1])
							if i%2 == 1 {
								sprinkleNonFinite(rng, w, 0.05)
							}
							_, ow := g.OutDims(x.shape[1], wd)
							checkPairs(t, x, w, g, fmt.Sprintf("k%d s%d pad%d ow=%d c=%d n=%d", k, s, pad, ow, cn[0], cn[1]))
							i++
						}
					}
				}
			}
		}
	})
}

// TestConvPairNaNFallback puts a zero input in one pixel of a pair
// opposite an infinite or NaN weight: the pair computes 0·Inf or 0·NaN
// for that pixel, a NaN the single-pixel path never forms, so the
// pixel's finite result must come from the fallback. Both sides of the
// pair and both signs of zero are covered.
func TestConvPairNaNFallback(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		g := ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}
		nan := math.Float32frombits(0x7fc01234)
		inf := float32(math.Inf(1))
		// Tap 0's weights are non-finite in columns 0-2; tap 1's are finite.
		w := MustFromSlice([]float32{inf, -inf, nan, 1, 1, 2, 3, 4}, 1, 1, 2, 4)
		for _, zero := range []float32{0, float32(math.Copysign(0, -1))} {
			for side := 0; side < 2; side++ {
				// Pixel side has input 0 at tap 0; its partner has 1 there.
				// Both have 1 at tap 1.
				x := MustFromSlice([]float32{1, 1, 1, 1, 1, 1}, 1, 1, 3, 2)
				x.data[2*side] = zero
				label := fmt.Sprintf("zero=%#x side=%d", math.Float32bits(zero), side)
				checkPairs(t, x, w, g, label)
				got, err := ConvInto(nil, x, w, g)
				if err != nil {
					t.Fatal(err)
				}
				for j, want := range []float32{1, 2, 3, 4} {
					if v := got.data[side*4+j]; math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("%s: column %d of the zero-input pixel is %#x, want %g", label, j, math.Float32bits(v), want)
					}
				}
			}
		}
	})
}

// TestConvPairNegativeZero checks that a pair adding (-0)·w into its
// accumulator leaves it as the single-pixel path does: a pixel whose
// inputs are all -0 reads +0, and a pixel whose products cancel to
// exactly zero reads +0, when its partner's inputs are nonzero.
func TestConvPairNegativeZero(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		negz := float32(math.Copysign(0, -1))
		g := ConvGeom{KH: 1, KW: 3, SH: 1, SW: 1}
		w := MustFromSlice([]float32{1, -2, 5, 7, -1, 2}, 1, 3, 1, 2)
		// Pixel 0 reads columns 0-2, pixel 1 columns 1-3: pixel 0 sees
		// (-0, -0, -0), pixel 1 (-0, -0, 3). With x = (1, -0, 1, 2),
		// pixel 0 sums 1·1 + (-0)·5 + 1·(-1) = +0 in column 0.
		for _, xs := range [][]float32{{negz, negz, negz, 3}, {1, negz, 1, 2}} {
			x := MustFromSlice(xs, 1, 1, 4, 1)
			checkPairs(t, x, w, g, fmt.Sprint(xs))
			got, err := ConvInto(nil, x, w, g)
			if err != nil {
				t.Fatal(err)
			}
			if b := math.Float32bits(got.data[0]); b != 0 {
				t.Fatalf("x=%v: pixel 0 column 0 is %#x, want +0", xs, b)
			}
		}
	})
}

// TestConvPairShardSplit runs two workers over a 3x3 output, so the
// shard boundary at pixel 4 falls inside the pair (3, 4) of the middle
// row: each shard must compute its half of that pair on its own.
func TestConvPairShardSplit(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		defer parallel.SetWorkers(0)
		parallel.SetWorkers(2)
		rng := rand.New(rand.NewSource(29))
		g := ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}
		x := reluInput(rng, 1, 5, 5, 16)
		w := randKernel(rng, g, 16, 64)
		rows := 9
		if lo := rows / 2; lo%3 != 1 || kernelWorkers(rows*len(w.data)) != 2 {
			t.Fatalf("shard boundary %d or %d workers does not split a pair", lo, kernelWorkers(rows*len(w.data)))
		}
		checkPairs(t, x, w, g, "3x3 output, 2 workers")
		sprinkleNonFinite(rng, w, 0.05)
		checkPairs(t, x, w, g, "3x3 output, 2 workers, non-finite weights")
	})
}

// checkConvWindow runs ConvWindowInto for rows [y0,y1) and columns
// [x0,x1) into a dst holding a sentinel NaN and checks that the window
// holds ConvInto's bits and every other pixel still holds the sentinel.
func checkConvWindow(t testing.TB, x, w *Tensor, g ConvGeom, full *Tensor, y0, y1, x0, x1 int, label string) {
	t.Helper()
	sentinel := math.Float32frombits(0x7fc0beef)
	dst := New(full.shape...)
	dst.Fill(sentinel)
	if err := ConvWindowInto(dst, x, w, g, y0, y1, x0, x1); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	oh, ow, n := full.shape[1], full.shape[2], full.shape[3]
	for i, v := range dst.data {
		p := i / n
		oy, ox := p/ow%oh, p%ow
		want := sentinel
		if oy >= y0 && oy < y1 && ox >= x0 && ox < x1 {
			want = full.data[i]
		}
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("%s window [%d,%d)x[%d,%d): elem %d (%d,%d): %#x, want %#x",
				label, y0, y1, x0, x1, i, oy, ox, math.Float32bits(v), math.Float32bits(want))
		}
	}
}

// TestConvWindowIntoPairs checks windows 1 to 4 pixels wide, starting on
// even and odd columns and on the border, against ConvInto, which pairs
// pixels from the start of each output row while a window pairs them
// from its own first column.
func TestConvWindowIntoPairs(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, g := range []ConvGeom{
			{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1},
			{KH: 3, KW: 3, SH: 2, SW: 2},
		} {
			x := reluInput(rng, 2, 9, 15, 4)
			w := randKernel(rng, g, 4, 5)
			sprinkleNonFinite(rng, w, 0.03)
			full, err := ConvInto(nil, x, w, g)
			if err != nil {
				t.Fatal(err)
			}
			oh, ow := full.shape[1], full.shape[2]
			for width := 1; width <= 4; width++ {
				for x0 := 0; x0+width <= ow; x0++ {
					y0 := x0 % (oh - 1)
					checkConvWindow(t, x, w, g, full, y0, y0+1+x0%2, x0, x0+width, fmt.Sprintf("%+v", g))
				}
			}
		}
	})
}
