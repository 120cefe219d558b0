package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ranger/internal/parallel"
)

// randMat builds an (m,n) tensor with a mix of magnitudes and exact
// zeros of both signs, so the kernels' zero-skip and accumulation order
// face the same values the single-tap oracle sees.
func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	d := t.Data()
	for i := range d {
		switch rng.Intn(6) {
		case 0:
			d[i] = 0 // exercise the zero-skip path
		case 5:
			d[i] = float32(math.Copysign(0, -1))
		case 1:
			d[i] = float32(rng.NormFloat64() * 1e-3)
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return t
}

// sprinkleNonFinite overwrites about a share rate of t's elements with
// infinities and NaNs of random sign and payload, the values a fault in
// an exponent feeds the kernels.
func sprinkleNonFinite(rng *rand.Rand, t *Tensor, rate float64) {
	for i := range t.data {
		switch {
		case rng.Float64() >= rate:
		case rng.Intn(2) == 0:
			t.data[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		default:
			t.data[i] = math.Float32frombits(0x7f800001 | rng.Uint32()&0x807fffff)
		}
	}
}

// sameBits reports whether two float32s are bit-identical, or both NaN:
// where an add meets two NaNs, which payload survives is up to register
// allocation.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestMatMulPackBitIdentical pins the row, column-sharded and packed
// four-tap kernels to the single-tap oracle bit for bit (NaN for NaN),
// across shapes spanning every internal path (single block, wide-N
// blocked, tall-M, lane counts around PackMinRows), worker counts, and
// operands with and without infinities and NaNs.
func TestMatMulPackBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 7, 9},      // below PackMinRows: delegates to MatMulInto
		{2, 300, 1100}, // column-sharded MatMulInto at 3 workers
		{4, 16, 8},     // minimum packed rows
		{8, 130, 40},   // spans a blockK boundary
		{16, 64, 600},
		{5, 300, 1100}, // multiple j-blocks
		{37, 128, 512}, // exact block sizes
	}
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		for _, sh := range shapes {
			for _, rate := range []float64{0, 0.02} {
				m, k, n := sh[0], sh[1], sh[2]
				a, b := randMat(rng, m, k), randMat(rng, k, n)
				sprinkleNonFinite(rng, a, rate)
				sprinkleNonFinite(rng, b, rate)
				want := refMatMul(a, b)
				row, err := MatMul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				packed, err := MatMulPackInto(New(m, n), a, b, make([]float32, PackPanelLen))
				if err != nil {
					t.Fatal(err)
				}
				// nil pack must allocate its own panel and still agree.
				nilPack, err := MatMulPackInto(nil, a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range map[string]*Tensor{"row": row, "packed": packed, "nil-pack": nilPack} {
					for i, w := range want.Data() {
						if g := got.Data()[i]; !sameBits(g, w) {
							t.Fatalf("workers=%d (%d,%d)x(%d,%d) nonfinite=%g %s: elem %d: %#x != oracle %#x",
								workers, m, k, k, n, rate, name, i, math.Float32bits(g), math.Float32bits(w))
						}
					}
				}
			}
		}
	}
	parallel.SetWorkers(0)
}

// refQMatMul is the single-tap int8 oracle: QMatMul's accumulators, one
// tap at a time.
func refQMatMul(a []int8, za int32, m, k int, w []int8, n int) []int32 {
	acc := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := int32(a[i*k+p]) - za
			for j := 0; j < n; j++ {
				acc[i*n+j] += av * int32(w[p*n+j])
			}
		}
	}
	return acc
}

// TestQMatMulPackIdentical pins both four-tap int8 kernels to the
// single-tap oracle. The requantization folds every byte of each int32
// accumulator into its output byte, so any accumulator difference shows.
func TestQMatMulPackIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fold := func(v int32) int8 { return int8(v ^ v>>8 ^ v>>16 ^ v>>24) }
	requant := func(acc []int32, outRow []int8) {
		for j, v := range acc {
			outRow[j] = fold(v)
		}
	}
	shapes := [][3]int{{1, 7, 9}, {2, 9, 5}, {4, 40, 33}, {12, 130, 600}, {33, 256, 1024}}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := make([]int8, m*k)
			w := make([]int8, k*n)
			for i := range a {
				a[i] = int8(rng.Intn(256) - 128)
			}
			for i := range w {
				w[i] = int8(rng.Intn(256) - 128)
			}
			za := int32(a[0])
			for i := range a {
				if rng.Intn(3) == 0 {
					a[i] = int8(za) // the zero-skip path
				}
			}
			want := make([]int8, m*n)
			for i, v := range refQMatMul(a, za, m, k, w, n) {
				want[i] = fold(v)
			}
			single := make([]int8, m*n)
			if err := QMatMul(a, za, m, k, w, n, single, requant, nil); err != nil {
				t.Fatal(err)
			}
			for i, v := range want {
				if single[i] != v {
					t.Fatalf("workers=%d (%d,%d,%d): elem %d: QMatMul %d != oracle %d", workers, m, k, n, i, single[i], v)
				}
			}
			got := make([]int8, m*n)
			var tmp QScratch
			if err := QMatMulPack(a, za, m, k, w, n, got, requant, &tmp); err != nil {
				t.Fatal(err)
			}
			for i, v := range want {
				if got[i] != v {
					t.Fatalf("workers=%d (%d,%d,%d): elem %d: packed %d != %d", workers, m, k, n, i, got[i], v)
				}
			}
			got2 := make([]int8, m*n)
			if err := QMatMulPack(a, za, m, k, w, n, got2, requant, nil); err != nil {
				t.Fatal(err)
			}
			for i, v := range want {
				if got2[i] != v {
					t.Fatalf("workers=%d nil-tmp elem %d: %d != %d", workers, i, got2[i], v)
				}
			}
		}
	}
	parallel.SetWorkers(0)
}
