//go:build !amd64

package tensor

// useAVX2 is false off amd64: the portable kernels are the only path.
var useAVX2 = false

// The AVX2 block kernels exist only on amd64; these are never called.

func convPairAVX2(x, w, o0, o1 *float32, rows, run, xrow, next, wrow, n int) bool {
	panic("tensor: AVX2 kernel called off amd64")
}

func convPixelAVX2(x, w, o *float32, rows, run, xrow, wrow, n int) bool {
	panic("tensor: AVX2 kernel called off amd64")
}

func qconvPairAVX2(x, w *int8, acc0, acc1, buf *int32, za, rows, run, xrow, next, wrow, n int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func qconvPixelAVX2(x, w *int8, acc, buf *int32, za, rows, run, xrow, wrow, n int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func epilogueAVX2(dst, src, vec *float32, n, c int, lo, hi float32, relu bool) {
	panic("tensor: AVX2 kernel called off amd64")
}

func maxRowAVX2(dst, src *float32, n int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func qmaxRowAVX2(dst, src *int8, n int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func requantAVX2(acc, corr *int32, out *int8, n int, zo, msc float32, qlo, qhi int32) {
	panic("tensor: AVX2 kernel called off amd64")
}

func quantizeAVX2(dst *int8, src *float32, n int, scale, zero float32) {
	panic("tensor: AVX2 kernel called off amd64")
}

func dequantAVX2(dst *float32, src *int8, n int, scale float32, zero int32) {
	panic("tensor: AVX2 kernel called off amd64")
}

func scaleAccAVX2(dst *float32, acc *int32, n int, m float32) {
	panic("tensor: AVX2 kernel called off amd64")
}

func qaddAVX2(dst, a, b *int8, n int, sa float32, za int32, sb float32, zb int32, lo, hi float32, relu bool, so, zo float32) {
	panic("tensor: AVX2 kernel called off amd64")
}
