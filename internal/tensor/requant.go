package tensor

// The float↔int8 boundary of the quantized backend: requantizing an
// int8 GEMM's int32 accumulators into its int8 outputs, and quantizing a
// float feed (QuantizeInto). Both round with RoundI32 and saturate.

// clampRoundQ rounds a quantized-domain value and saturates it into
// [qlo, qhi] — the requantize+saturating-clamp write-back. It is the
// portable kernel under Requant and the oracle its AVX2 kernel is
// compared against.
func clampRoundQ(q float32, qlo, qhi int32) int8 {
	if !(q > float32(qlo)) { // NaN saturates low, like QParams.Quantize
		return int8(qlo)
	}
	if q > float32(qhi) {
		return int8(qhi)
	}
	r := RoundI32(q)
	if r > qhi {
		r = qhi
	} else if r < qlo {
		r = qlo
	}
	return int8(r)
}

// Requant writes the int8 outputs of a row of int32 GEMM accumulators:
// out[j] = clampRoundQ(float32(zo) + float32(acc[j]-corr[j])*msc, qlo,
// qhi), the int32 difference wrapping and the product and sum each
// rounded to float32 (never fused). corr and out must hold at least
// len(acc) elements. On amd64 with AVX2, rows of eight or more with
// -128 <= qlo <= qhi <= 127 run on requantAVX2, the same rule bit for
// bit.
func Requant(acc, corr []int32, out []int8, zo int32, msc float32, qlo, qhi int32) {
	corr, out = corr[:len(acc)], out[:len(acc)]
	if useAVX2 && len(acc) >= 8 && -128 <= qlo && qlo <= qhi && qhi <= 127 {
		requantAVX2(&acc[0], &corr[0], &out[0], len(acc), float32(zo), msc, qlo, qhi)
		return
	}
	for j, a := range acc {
		out[j] = clampRoundQ(float32(zo)+float32(float32(a-corr[j])*msc), qlo, qhi)
	}
}
