package tensor

// useAVX2 selects the AVX2 block kernels under ConvInto, ConvWindowInto,
// QConvInto and QConvWindowInto, and the AVX2 epilogue kernel under
// Epilogue.Apply, AddBias, Relu and Clamp, the row-max kernels under
// MaxInto and QMaxInto, the int8 boundary kernels under Requant and
// QuantizeInto, and the int8 float-leg kernels under QEpilogue. It is set once from CPUID and XGETBV:
// the CPU must report AVX2 and the OS must save the YMM registers.
// Tests clear it to run the portable kernels, which are the oracle the
// AVX2 path is compared against.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU supports AVX2 and the OS has enabled
// the XMM and YMM register state.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0 (XCR0).
func xgetbv() (eax, edx uint32)

// The block kernels (simd_amd64.s). Each computes whole output rows of n
// columns (n >= 4) for one pixel or one pixel pair, 16 columns per block
// and then 8 (4 when n < 8), the last block overlapping the one before
// when n is not a multiple of the block width.
// A block keeps its accumulators in YMM registers across every tap of
// the window: rows kernel rows of run taps each, x and w stepping by
// xrow and wrow elements between kernel rows and w by n between taps;
// a pair's second pixel reads x at +next. See conv.go for the callers
// and the bounds they guarantee.

// convPairAVX2 writes the dense sums of a pixel pair into o0 and o1 and
// reports whether either row holds a NaN.
//
//go:noescape
func convPairAVX2(x, w, o0, o1 *float32, rows, run, xrow, next, wrow, n int) (nan bool)

// convPixelAVX2 writes one pixel's dense sums into o and reports whether
// it holds a NaN.
//
//go:noescape
func convPixelAVX2(x, w, o *float32, rows, run, xrow, wrow, n int) (nan bool)

// qconvPairAVX2 writes the int32 sums Σ (x-za)·w of a pixel pair into
// acc0 and acc1, using buf (2·rows·run lanes) for the taps x-za. za
// must lie in [-128, 127].
//
//go:noescape
func qconvPairAVX2(x, w *int8, acc0, acc1, buf *int32, za, rows, run, xrow, next, wrow, n int)

// qconvPixelAVX2 writes one pixel's int32 sums Σ (x-za)·w into acc,
// using buf (rows·run lanes) for the taps x-za. za must lie in
// [-128, 127].
//
//go:noescape
func qconvPixelAVX2(x, w *int8, acc, buf *int32, za, rows, run, xrow, wrow, n int)

// epilogueAVX2 writes bias? → ReLU? → clamp of src[0:n] into dst[0:n]
// (dst may equal src). vec, when non-nil, holds c biases and n is a
// multiple of c; lo <= hi, and a caller with no clamp passes -Inf and
// +Inf. See canon.applyTo for the caller.
//
//go:noescape
func epilogueAVX2(dst, src, vec *float32, n, c int, lo, hi float32, relu bool)

// maxRowAVX2 folds src[0:n] into dst[0:n] (dst[i] = src[i] where
// src[i] > dst[i]); n >= 4. See MaxInto for the caller.
//
//go:noescape
func maxRowAVX2(dst, src *float32, n int)

// qmaxRowAVX2 folds src[0:n] into dst[0:n] (dst[i] = src[i] where
// src[i] > dst[i]); n >= 16. See QMaxInto for the caller.
//
//go:noescape
func qmaxRowAVX2(dst, src *int8, n int)

// requantAVX2 writes clampRoundQ(zo + float32(acc[j]-corr[j])*msc, qlo,
// qhi) into out[j] for j < n; n >= 8 and -128 <= qlo <= qhi <= 127. See
// Requant for the caller.
//
//go:noescape
func requantAVX2(acc, corr *int32, out *int8, n int, zo, msc float32, qlo, qhi int32)

// quantizeAVX2 writes QParams{scale, zero}.Quantize(src[i]) into dst[i]
// for i < n, zero being the zero point as a float32; n >= 8. See
// QuantizeInto for the caller.
//
//go:noescape
func quantizeAVX2(dst *int8, src *float32, n int, scale, zero float32)

// dequantAVX2 writes scale*float32(src[i]-zero) into dst[i] for i < n;
// n >= 8. See QEpilogue.Add for the caller.
//
//go:noescape
func dequantAVX2(dst *float32, src *int8, n int, scale float32, zero int32)

// scaleAccAVX2 writes float32(acc[i])*m into dst[i] for i < n; n >= 8.
// See QEpilogue.Requant for the caller.
//
//go:noescape
func scaleAccAVX2(dst *float32, acc *int32, n int, m float32)

// qaddAVX2 writes QParams{so, zo}.Quantize of ReLU? → clamp to [lo, hi]
// of sa*float32(a[i]-za) + sb*float32(b[i]-zb) into dst[i] for i < n; n
// is a positive multiple of 8 and lo <= hi. See QEpilogue.Add for the
// caller.
//
//go:noescape
func qaddAVX2(dst, a, b *int8, n int, sa float32, za int32, sb float32, zb int32, lo, hi float32, relu bool, so, zo float32)
