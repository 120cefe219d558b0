package tensor

import (
	"fmt"
	"sync"

	"ranger/internal/parallel"
)

// Int8 compute kernels. QMatMul is the quantized counterpart of the
// float32 matmul: int8 operands, int32 accumulation, and a caller-
// supplied requantization epilogue that collapses zero-point correction,
// bias, activation, and Ranger's range restriction into the single pass
// that writes each output row back to int8. QConvInto runs quantized
// convolution as an implicit GEMM with the same micro-kernels.

// QMatMul multiplies the (m,k) int8 matrix a by the (k,n) int8 matrix w,
// accumulating acc[j] = Σ_p (a[p]-za)·w[p,j] in int32 and handing each
// row to requant, which must write the row's int8 outputs into outRow.
// Subtracting the zero point inside the loop (rather than correcting
// with a per-column weight sum afterwards) lets the kernel skip
// zero-valued operands exactly like the float kernels skip post-ReLU
// zeros — the raw byte for real 0.0 is za, not 0. The per-term product
// fits int32 for any reduction below ~65k taps, far past the zoo.
// Rows are sharded across workers; integer accumulation makes results
// identical at every worker count by construction. tmp, when non-nil,
// provides the single-worker accumulator, so a steady-state call on one
// worker allocates nothing.
func QMatMul(a []int8, za int32, m, k int, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8), tmp *QScratch) error {
	if len(a) < m*k || len(w) < k*n || len(out) < m*n {
		return fmt.Errorf("%w: qmatmul (%d,%d)x(%d,%d) over %d/%d/%d elements",
			ErrShape, m, k, k, n, len(a), len(w), len(out))
	}
	if workers := kernelWorkers(m * k * n); workers > 1 && m > 1 {
		parallel.Shard(workers, m, func(lo, hi int) {
			qmatmulRows(a, za, k, w, n, out, make([]int32, n), lo, hi, requant)
		})
		return nil
	}
	qmatmulRows(a, za, k, w, n, out, tmp.Int32(n), 0, m, requant)
	return nil
}

// qmatmulRows is QMatMul's body for rows [lo, hi); acc is the n-long
// accumulator it reuses for every row.
func qmatmulRows(a []int8, za int32, k int, w []int8, n int, out []int8, acc []int32, lo, hi int, requant func(acc []int32, outRow []int8)) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		clear(acc)
		if n <= blockN {
			qgemvTaps(acc, arow, za, w, n)
		} else {
			for p0 := 0; p0 < k; p0 += blockK {
				p1 := min(p0+blockK, k)
				for j0 := 0; j0 < n; j0 += blockN {
					j1 := min(j0+blockN, n)
					qgemvTaps(acc[j0:j1], arow[p0:p1], za, w[p0*n+j0:], n)
				}
			}
		}
		requant(acc, out[i*n:(i+1)*n])
	}
}

// qaxpy4 adds a0*b0 + a1*b1 + a2*b2 + a3*b3 into acc: the int8 four-tap
// micro-kernel, on int32 accumulators for one output row and on int64
// ones for a pixel pair (see qconvPair). Wrapping integer addition is
// associative, so the sums equal four single-tap passes whatever the
// grouping.
func qaxpy4[T int32 | int64](acc []T, a0, a1, a2, a3 T, b0, b1, b2, b3 []int8) {
	b0, b1, b2, b3 = b0[:len(acc)], b1[:len(acc)], b2[:len(acc)], b3[:len(acc)]
	for j, v := range acc {
		acc[j] = v + a0*T(b0[j]) + a1*T(b1[j]) + a2*T(b2[j]) + a3*T(b3[j])
	}
}

// qgemvTaps accumulates (a[p]-za)*b[p*ldb : p*ldb+len(acc)] into acc for
// every a[p] other than the zero point, four taps per pass over acc: the
// int8 counterpart of gemvTaps.
func qgemvTaps(acc []int32, a []int8, za int32, b []int8, ldb int) {
	w := len(acc)
	var off [4]int
	var av [4]int32
	nz := 0
	for p, q := range a {
		v := int32(q) - za
		if v == 0 {
			continue
		}
		off[nz&3], av[nz&3] = p*ldb, v
		nz++
		if nz&3 == 0 {
			qaxpy4(acc, av[0], av[1], av[2], av[3],
				b[off[0]:off[0]+w], b[off[1]:off[1]+w], b[off[2]:off[2]+w], b[off[3]:off[3]+w])
		}
	}
	qaxpyTail(acc, b, &av, &off, nz)
}

// qaxpyTail applies the last nz%4 taps left in an int8 four-tap ring.
func qaxpyTail[T int32 | int64](acc []T, b []int8, av *[4]T, off *[4]int, nz int) {
	w := len(acc)
	for t := nz &^ 3; t < nz; t++ {
		a0, brow := av[t&3], b[off[t&3]:off[t&3]+w]
		for j, bv := range brow {
			acc[j] += a0 * T(bv)
		}
	}
}

// qpanelPool recycles int8 panel buffers for the parallel packed paths.
var qpanelPool = sync.Pool{New: func() any { return make([]int8, PackPanelLen) }}

// qmatmulPanels accumulates the packed int8 GEMM for output rows
// [lo, hi) and columns [jw0, jw1) into the int32 accumulator matrix acc
// (row stride n): each weight panel block is packed once and reused
// across every row — the int8 mirror of matmulPanels. Accumulation is
// exact integer arithmetic, so results are identical to QMatMul's by
// construction.
func qmatmulPanels(a []int8, za int32, w []int8, acc []int32, k, n, lo, hi, jw0, jw1 int, pack []int8) {
	for j0 := jw0; j0 < jw1; j0 += blockN {
		j1 := min(j0+blockN, jw1)
		width := j1 - j0
		for i := lo; i < hi; i++ {
			clear(acc[i*n+j0 : i*n+j1])
		}
		for p0 := 0; p0 < k; p0 += blockK {
			p1 := min(p0+blockK, k)
			for p := p0; p < p1; p++ {
				copy(pack[(p-p0)*width:(p-p0+1)*width], w[p*n+j0:p*n+j1])
			}
			for i := lo; i < hi; i++ {
				qgemvTaps(acc[i*n+j0:i*n+j1], a[i*k+p0:i*k+p1], za, pack, width)
			}
		}
	}
}

// QMatMulPack is the panel-packed, lane-batched form of QMatMul: weight
// panel blocks are copied once into a contiguous buffer and reused
// across all m rows (the B batched lanes), accumulating in int32 and
// requantizing per row exactly like QMatMul. tmp, when non-nil, provides
// the accumulator matrix and panel storage so steady-state calls
// allocate nothing. Integer accumulation makes the results identical to
// QMatMul at every worker count; below PackMinRows rows the call
// delegates to QMatMul.
func QMatMulPack(a []int8, za int32, m, k int, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8), tmp *QScratch) error {
	if m < PackMinRows {
		return QMatMul(a, za, m, k, w, n, out, requant, tmp)
	}
	if len(a) < m*k || len(w) < k*n || len(out) < m*n {
		return fmt.Errorf("%w: qmatmul (%d,%d)x(%d,%d) over %d/%d/%d elements",
			ErrShape, m, k, k, n, len(a), len(w), len(out))
	}
	acc, pack := tmp.Int32(m*n), tmp.Int8(PackPanelLen)
	workers := kernelWorkers(m * k * n)
	switch {
	case workers <= 1:
		qmatmulPanels(a, za, w, acc, k, n, 0, m, 0, n, pack)
	case (n+blockN-1)/blockN >= workers:
		parallel.Shard(workers, (n+blockN-1)/blockN, func(b0, b1 int) {
			wp := qpanelPool.Get().([]int8)
			qmatmulPanels(a, za, w, acc, k, n, 0, m, b0*blockN, min(b1*blockN, n), wp)
			qpanelPool.Put(wp)
		})
	default:
		parallel.Shard(workers, m, func(lo, hi int) {
			wp := qpanelPool.Get().([]int8)
			qmatmulPanels(a, za, w, acc, k, n, lo, hi, 0, n, wp)
			qpanelPool.Put(wp)
		})
	}
	if workers <= 1 {
		for i := 0; i < m; i++ {
			requant(acc[i*n:(i+1)*n], out[i*n:(i+1)*n])
		}
		return nil
	}
	parallel.Shard(workers, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			requant(acc[i*n:(i+1)*n], out[i*n:(i+1)*n])
		}
	})
	return nil
}

// maxPairTaps is the largest window, in taps (KH*KW*C), that QConvInto
// computes two pixels at a time. With |x-za| <= 255 and |w| <= 128 a
// pixel's sum then stays within 65793*255*128 = 2147483520, so the low
// lane of a pair's int64 sum never carries into the high lane.
const maxPairTaps = 65793

// QConvInto convolves the int8 NHWC input x with the (KH*KW*C, n) int8
// kernel matrix w, accumulating acc[j] = Σ_p (x_p-za)·w[p,j] in int32
// for each output pixel and handing the pixel's accumulator to requant,
// which writes its n int8 outputs into out. It is the implicit-GEMM
// counterpart of ConvInto: taps are read straight from x one kernel row
// at a time, taps equal to the zero point are skipped, and padding taps
// — which an im2col would fill with the zero point — are never visited,
// so padded positions contribute exactly real 0.0. Neighbouring pixels
// of one output row whose windows cover the same kernel rows and
// columns are computed as a pair, two products per 64-bit multiply (see
// qconvPair). Integer accumulation makes the results identical to an
// im2col plus QMatMul at every worker count. tmp, when non-nil,
// provides the single-worker accumulators.
func QConvInto(x *QTensor, za int32, g ConvGeom, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8), tmp *QScratch) error {
	d, err := convDimsFor("qconv", x.shape, g, len(w), n)
	if err != nil {
		return err
	}
	rows := x.shape[0] * d.oh * d.ow
	if len(out) < rows*n {
		return fmt.Errorf("%w: qconv out %d elements, want %d", ErrShape, len(out), rows*n)
	}
	xd := x.data
	pairs := d.pairable(za)
	if workers := kernelWorkers(rows * len(w)); workers > 1 && rows > 1 {
		parallel.Shard(workers, rows, func(lo, hi int) {
			var acc64 []int64
			if pairs {
				acc64 = make([]int64, n)
			}
			qconvPixels(xd, za, w, out, make([]int32, 2*n), acc64, d, lo, hi, requant)
		})
		return nil
	}
	var acc64 []int64
	if pairs {
		acc64 = tmp.Int64(n)
	}
	qconvPixels(xd, za, w, out, tmp.Int32(2*n), acc64, d, 0, rows, requant)
	return nil
}

// QConvWindowInto computes the output pixels of QConvInto in rows
// [y0,y1) and columns [x0,x1) of every batch image, identical to
// QConvInto, and leaves the other pixels of out as they are. Like
// ConvWindowInto it runs on the calling goroutine.
func QConvWindowInto(x *QTensor, za int32, g ConvGeom, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8), tmp *QScratch, y0, y1, x0, x1 int) error {
	d, err := convDimsFor("qconv", x.shape, g, len(w), n)
	if err != nil {
		return err
	}
	nb := x.shape[0]
	if len(out) < nb*d.oh*d.ow*n {
		return fmt.Errorf("%w: qconv out %d elements, want %d", ErrShape, len(out), nb*d.oh*d.ow*n)
	}
	if y0 < 0 || y1 > d.oh || x0 < 0 || x1 > d.ow {
		return fmt.Errorf("%w: qconv window [%d,%d)x[%d,%d) of %dx%d", ErrShape, y0, y1, x0, x1, d.oh, d.ow)
	}
	var acc64 []int64
	if d.pairable(za) {
		acc64 = tmp.Int64(n)
	}
	acc := tmp.Int32(2 * n)
	for b := 0; b < nb; b++ {
		for oy := y0; oy < y1; oy++ {
			row := (b*d.oh + oy) * d.ow
			qconvPixels(x.data, za, w, out, acc, acc64, d, row+x0, row+x1, requant)
		}
	}
	return nil
}

// pairable reports whether QConvInto may compute this convolution's
// pixels in pairs: the window fits maxPairTaps and the zero point lies
// in int8 (one outside would break the lane bound).
func (d convDims) pairable(za int32) bool {
	return d.g.KH*d.g.KW*d.c <= maxPairTaps && za >= -128 && za <= 127
}

// qconvPixels is QConvInto's body for output pixels [lo, hi), the int8
// mirror of convPixels. acc holds two n-long int32 rows. When acc64 (n
// long) is non-nil, pixels r and r+1 of one output row with the same
// valid window go through qconvPair; every other pixel — one whose
// neighbour's window differs at the border, the last of a row, the last
// of [lo, hi) — goes through qconvPixel.
func qconvPixels(xd []int8, za int32, wd, out []int8, acc []int32, acc64 []int64, d convDims, lo, hi int, requant func(acc []int32, outRow []int8)) {
	n := d.n
	acc0, acc1 := acc[:n], acc[n:2*n]
	for r := lo; r < hi; {
		b, iy, ix, ky0, ky1, kx0, kx1 := d.window(r)
		if acc64 != nil && r+1 < hi && (r+1)%d.ow != 0 {
			if _, _, _, _, _, nx0, nx1 := d.window(r + 1); nx0 == kx0 && nx1 == kx1 {
				qconvPair(xd, za, wd, acc64, d, b, iy, ix, ky0, ky1, kx0, kx1)
				for j, v := range acc64 {
					l := int32(v)
					acc0[j], acc1[j] = l, int32((v-int64(l))>>32)
				}
				requant(acc0, out[r*n:(r+1)*n])
				requant(acc1, out[(r+1)*n:(r+2)*n])
				r += 2
				continue
			}
		}
		qconvPixel(xd, za, wd, acc0, d, b, iy, ix, ky0, ky1, kx0, kx1)
		requant(acc0, out[r*n:(r+1)*n])
		r++
	}
}

// qconvPixel accumulates one output pixel, whose window d.window
// described, into the n-long acc.
func qconvPixel(xd []int8, za int32, wd []int8, acc []int32, d convDims, b, iy, ix, ky0, ky1, kx0, kx1 int) {
	c, n, kw := d.c, d.n, d.g.KW
	clear(acc)
	run := (kx1 - kx0) * c
	for j0 := 0; j0 < n; j0 += blockN {
		ab := acc[j0:min(j0+blockN, n)]
		width := len(ab)
		var off [4]int
		var av [4]int32
		nz := 0
		for ky := ky0; ky < ky1; ky++ {
			src := ((b*d.h+iy+ky)*d.w + ix + kx0) * c
			p := ((ky*kw+kx0)*c)*n + j0
			for t, q := range xd[src : src+run] {
				v := int32(q) - za
				if v == 0 {
					continue
				}
				off[nz&3], av[nz&3] = p+t*n, v
				nz++
				if nz&3 == 0 {
					qaxpy4(ab, av[0], av[1], av[2], av[3],
						wd[off[0]:off[0]+width], wd[off[1]:off[1]+width], wd[off[2]:off[2]+width], wd[off[3]:off[3]+width])
				}
			}
		}
		qaxpyTail(ab, wd, &av, &off, nz)
	}
}

// qconvPair accumulates the pixel whose window d.window described and
// its right-hand neighbour, which has the same valid window one stride
// further along the input row, into the n-long acc: each tap packs both
// pixels' operands into one int64, (x_r-za) + (x_{r+1}-za)<<32, so one
// multiply by w[p,j] yields both products. acc[j] ends as lo + hi<<32
// for the two pixels' sums lo and hi. Within maxPairTaps, lo fits int32,
// so int32(acc[j]) is lo and (acc[j]-lo)>>32 is hi, each equal to the
// int32 sum qconvPixel computes. A tap at the zero point in both pixels
// is skipped.
func qconvPair(xd []int8, za int32, wd []int8, acc []int64, d convDims, b, iy, ix, ky0, ky1, kx0, kx1 int) {
	c, n, kw := d.c, d.n, d.g.KW
	clear(acc)
	run, next := (kx1-kx0)*c, d.g.SW*c
	for j0 := 0; j0 < n; j0 += blockN {
		ab := acc[j0:min(j0+blockN, n)]
		width := len(ab)
		var off [4]int
		var av [4]int64
		nz := 0
		for ky := ky0; ky < ky1; ky++ {
			src := ((b*d.h+iy+ky)*d.w + ix + kx0) * c
			p := ((ky*kw+kx0)*c)*n + j0
			x1 := xd[src+next : src+next+run]
			for t, q := range xd[src : src+run] {
				v := int64(int32(q)-za) + int64(int32(x1[t])-za)<<32
				if v == 0 {
					continue
				}
				off[nz&3], av[nz&3] = p+t*n, v
				nz++
				if nz&3 == 0 {
					qaxpy4(ab, av[0], av[1], av[2], av[3],
						wd[off[0]:off[0]+width], wd[off[1]:off[1]+width], wd[off[2]:off[2]+width], wd[off[3]:off[3]+width])
				}
			}
		}
		qaxpyTail(ab, wd, &av, &off, nz)
	}
}
