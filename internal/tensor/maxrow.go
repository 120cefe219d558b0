package tensor

// Row maxima for channel-contiguous max pooling: a pooling kernel keeps
// one output pixel's c maxima in a row and folds the c-element input row
// of every tap of its window into it.

// MaxInto folds src into dst element by element: dst[i] becomes src[i]
// where src[i] > dst[i]. The comparison is strict, so a tie keeps dst
// (a -0 already in dst stays against +0) and a NaN in src never wins.
// src must hold at least len(dst) elements. On amd64 with AVX2 rows of
// four or more run on maxRowAVX2 (VMAXPS with src first, the same rule
// bit for bit).
func MaxInto(dst, src []float32) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) >= 4 {
		maxRowAVX2(&dst[0], &src[0], len(dst))
		return
	}
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// QMaxInto folds src into dst element by element: dst[i] becomes src[i]
// where src[i] > dst[i]. src must hold at least len(dst) elements. On
// amd64 with AVX2 rows of 16 or more run on qmaxRowAVX2 (VPMAXSB).
func QMaxInto(dst, src []int8) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) >= 16 {
		qmaxRowAVX2(&dst[0], &src[0], len(dst))
		return
	}
	for i, q := range src {
		if q > dst[i] {
			dst[i] = q
		}
	}
}
