package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMaxIntoSIMDMatchesGo compares the AVX2 row-max kernels with the
// Go loops bit for bit for rows of 0 to 140 elements (every block width
// and overlapping tail), with NaN payloads, ±0 ties, ±Inf and
// subnormals in both rows, and guard elements past the row.
func TestMaxIntoSIMDMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const guard = 5
	for n := 0; n <= 140; n++ {
		src, dst0 := make([]float32, n+guard), make([]float32, n+guard)
		qsrc, qdst0 := make([]int8, n+guard), make([]int8, n+guard)
		for i := range src {
			src[i], dst0[i] = epilogueValue(rng), epilogueValue(rng)
			switch rng.Intn(4) {
			case 0: // ties, NaN against NaN included
				src[i] = dst0[i]
			case 1: // ±0 against ±0
				src[i] = math.Float32frombits(uint32(rng.Intn(2)) << 31)
				dst0[i] = math.Float32frombits(uint32(rng.Intn(2)) << 31)
			}
			qsrc[i], qdst0[i] = int8(rng.Intn(256)-128), int8(rng.Intn(256)-128)
		}
		for i := n; i < len(src); i++ { // a kernel reaching past n changes dst
			src[i], dst0[i] = float32(math.Inf(1)), float32(math.Inf(-1))
			qsrc[i], qdst0[i] = 127, -128
		}
		var outs [][]float32
		var qouts [][]int8
		for _, simd := range kernelPaths() {
			onPath(simd, func() {
				dst, qdst := append([]float32{}, dst0...), append([]int8{}, qdst0...)
				MaxInto(dst[:n], src)
				QMaxInto(qdst[:n], qsrc)
				outs, qouts = append(outs, dst), append(qouts, qdst)
			})
		}
		for i, v := range outs[0] {
			want := dst0[i]
			if i < n && src[i] > want {
				want = src[i]
			}
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("n=%d go: element %d: %#x, want %#x", n, i, math.Float32bits(v), math.Float32bits(want))
			}
			qwant := qdst0[i]
			if i < n && qsrc[i] > qwant {
				qwant = qsrc[i]
			}
			if qouts[0][i] != qwant {
				t.Fatalf("n=%d go: int8 element %d: %d, want %d", n, i, qouts[0][i], qwant)
			}
		}
		for p := 1; p < len(outs); p++ {
			for i := range outs[0] {
				if math.Float32bits(outs[p][i]) != math.Float32bits(outs[0][i]) {
					t.Fatalf("n=%d: element %d: avx2 %#x != go %#x", n, i, math.Float32bits(outs[p][i]), math.Float32bits(outs[0][i]))
				}
				if qouts[p][i] != qouts[0][i] {
					t.Fatalf("n=%d: int8 element %d: avx2 %d != go %d", n, i, qouts[p][i], qouts[0][i])
				}
			}
		}
	}
}
