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
// that writes each output row back to int8. QIm2ColInto lowers int8 NHWC
// inputs to patch rows so quantized convolution reuses the same GEMM.

// QMatMul multiplies the (m,k) int8 matrix a by the (k,n) int8 matrix w,
// accumulating acc[j] = Σ_p (a[p]-za)·w[p,j] in int32 and handing each
// row to requant, which must write the row's int8 outputs into outRow.
// Subtracting the zero point inside the loop (rather than correcting
// with a per-column weight sum afterwards) lets the kernel skip
// zero-valued operands exactly like the float kernels skip post-ReLU
// zeros — the raw byte for real 0.0 is za, not 0. The per-term product
// fits int32 for any reduction below ~65k taps, far past the zoo.
// Rows are sharded across workers; integer accumulation makes results
// identical at every worker count by construction.
func QMatMul(a []int8, za int32, m, k int, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8)) error {
	if len(a) < m*k || len(w) < k*n || len(out) < m*n {
		return fmt.Errorf("%w: qmatmul (%d,%d)x(%d,%d) over %d/%d/%d elements",
			ErrShape, m, k, k, n, len(a), len(w), len(out))
	}
	parallel.Shard(kernelWorkers(m*k*n), m, func(lo, hi int) {
		acc := make([]int32, n)
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
	})
	return nil
}

// qaxpy4 adds a0*b0 + a1*b1 + a2*b2 + a3*b3 into acc: the int8 four-tap
// micro-kernel. Wrapping int32 addition is associative, so the sums equal
// four single-tap passes whatever the grouping.
func qaxpy4(acc []int32, a0, a1, a2, a3 int32, b0, b1, b2, b3 []int8) {
	b0, b1, b2, b3 = b0[:len(acc)], b1[:len(acc)], b2[:len(acc)], b3[:len(acc)]
	for j, v := range acc {
		acc[j] = v + a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
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
	for t := nz &^ 3; t < nz; t++ {
		a0, brow := av[t&3], b[off[t&3]:off[t&3]+w]
		for j, bv := range brow {
			acc[j] += a0 * int32(bv)
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
// across all m rows (the B batched lanes, or a whole batch's im2col
// patch rows), accumulating in int32 and requantizing per row exactly
// like QMatMul. tmp, when non-nil, provides the accumulator matrix and
// panel storage so steady-state calls allocate nothing. Integer
// accumulation makes the results identical to QMatMul at every worker
// count; below PackMinRows rows the call delegates to QMatMul.
func QMatMulPack(a []int8, za int32, m, k int, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8), tmp *QScratch) error {
	if m < PackMinRows {
		return QMatMul(a, za, m, k, w, n, out, requant)
	}
	if len(a) < m*k || len(w) < k*n || len(out) < m*n {
		return fmt.Errorf("%w: qmatmul (%d,%d)x(%d,%d) over %d/%d/%d elements",
			ErrShape, m, k, k, n, len(a), len(w), len(out))
	}
	var acc []int32
	var pack []int8
	if tmp != nil {
		acc, pack = tmp.Int32(m*n), tmp.Int8(PackPanelLen)
	} else {
		acc, pack = make([]int32, m*n), make([]int8, PackPanelLen)
	}
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

// QIm2ColInto lowers an int8 NHWC tensor into patch rows of length
// KH*KW*C in dst (which must hold N*OH*OW rows). Padding taps are filled
// with pad — the input's zero point, so padded positions dequantize to
// exactly 0.0 like the float kernel's zero padding.
func QIm2ColInto(dst []int8, x *QTensor, g ConvGeom, pad int8) error {
	if x.Rank() != 4 {
		return fmt.Errorf("%w: qim2col wants NHWC, got %v", ErrShape, x.shape)
	}
	n, h, w, c := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("%w: qim2col output %dx%d for input %v geom %+v", ErrShape, oh, ow, x.shape, g)
	}
	rowLen := g.KH * g.KW * c
	rows := n * oh * ow
	if len(dst) < rows*rowLen {
		return fmt.Errorf("%w: qim2col dst %d elements, want %d", ErrShape, len(dst), rows*rowLen)
	}
	xd := x.data
	parallel.Shard(kernelWorkers(rows*rowLen), rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / (oh * ow)
			oy := r / ow % oh
			ox := r % ow
			row := r * rowLen
			for i := row; i < row+rowLen; i++ {
				dst[i] = pad
			}
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.SH - g.PadH + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					ix := ox*g.SW - g.PadW + kx
					if ix < 0 || ix >= w {
						continue
					}
					src := ((b*h+iy)*w + ix) * c
					d := row + (ky*g.KW+kx)*c
					copy(dst[d:d+c], xd[src:src+c])
				}
			}
		}
	})
	return nil
}
