package tensor

import (
	"fmt"

	"ranger/internal/parallel"
)

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// over NHWC tensors. Padding is symmetric ("SAME"-style when computed via
// SamePad, zero for "VALID").
type ConvGeom struct {
	KH, KW     int // kernel height and width
	SH, SW     int // strides
	PadH, PadW int // symmetric padding on each side
}

// OutDims returns the spatial output size for an input of (h, w).
func (g ConvGeom) OutDims(h, w int) (int, int) {
	oh := (h+2*g.PadH-g.KH)/g.SH + 1
	ow := (w+2*g.PadW-g.KW)/g.SW + 1
	return oh, ow
}

// SamePad returns the symmetric padding that keeps output size ceil(in/stride)
// for odd kernels; it matches TensorFlow's SAME padding for stride 1.
func SamePad(k int) int { return (k - 1) / 2 }

// Im2Col lowers an NHWC input into a matrix of patch rows: the result has
// shape (N*OH*OW, KH*KW*C), so a convolution becomes a single matrix
// multiply against a (KH*KW*C, outC) kernel matrix.
func Im2Col(x *Tensor, g ConvGeom) (*Tensor, error) {
	return Im2ColInto(nil, x, g)
}

// Im2ColInto lowers x into dst, which must be (N*OH*OW, KH*KW*C) (its
// contents are overwritten); dst == nil allocates. Patch rows are sharded
// across workers; every row is written by exactly one worker, so results
// are identical at every worker count.
func Im2ColInto(dst *Tensor, x *Tensor, g ConvGeom) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("%w: im2col wants NHWC, got %v", ErrShape, x.shape)
	}
	n, h, w, c := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: im2col output %dx%d for input %v geom %+v", ErrShape, oh, ow, x.shape, g)
	}
	rowLen := g.KH * g.KW * c
	rows := n * oh * ow
	cols := dst
	if cols == nil {
		cols = New(rows, rowLen)
	} else if cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != rowLen {
		return nil, fmt.Errorf("%w: im2col dst %v, want [%d %d]", ErrShape, cols.shape, rows, rowLen)
	}
	xd, cd := x.data, cols.data
	parallel.Shard(kernelWorkers(rows*rowLen), rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / (oh * ow)
			oy := r / ow % oh
			ox := r % ow
			row := r * rowLen
			clear(cd[row : row+rowLen]) // padding taps stay zero
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
					dst := row + (ky*g.KW+kx)*c
					copy(cd[dst:dst+c], xd[src:src+c])
				}
			}
		}
	})
	return cols, nil
}

// convDims is the geometry of one implicit-GEMM convolution: the input's
// spatial size and channels, the output's spatial size, and the filter
// count n.
type convDims struct {
	g         ConvGeom
	h, w, c   int
	oh, ow, n int
}

// convDimsFor validates an NHWC input shape against a (KH*KW*C, n) kernel
// of kLen elements and returns the convolution's dimensions.
func convDimsFor(op string, shape []int, g ConvGeom, kLen, n int) (convDims, error) {
	if len(shape) != 4 {
		return convDims{}, fmt.Errorf("%w: %s wants NHWC, got %v", ErrShape, op, shape)
	}
	d := convDims{g: g, h: shape[1], w: shape[2], c: shape[3], n: n}
	d.oh, d.ow = g.OutDims(d.h, d.w)
	if d.oh <= 0 || d.ow <= 0 || n <= 0 {
		return convDims{}, fmt.Errorf("%w: %s output %dx%dx%d for input %v geom %+v", ErrShape, op, d.oh, d.ow, n, shape, g)
	}
	if kLen != g.KH*g.KW*d.c*n {
		return convDims{}, fmt.Errorf("%w: %s kernel of %d elements for %dx%dx%dx%d", ErrShape, op, kLen, g.KH, g.KW, d.c, n)
	}
	return d, nil
}

// window returns output pixel r's batch index, the input position of its
// window's top-left tap, and the valid kernel rows [ky0,ky1) and columns
// [kx0,kx1): the taps that fall inside the input rather than on padding.
// A window with no valid tap gets an empty row range.
func (d convDims) window(r int) (b, iy, ix, ky0, ky1, kx0, kx1 int) {
	b = r / (d.oh * d.ow)
	iy = r/d.ow%d.oh*d.g.SH - d.g.PadH
	ix = r%d.ow*d.g.SW - d.g.PadW
	ky0, ky1 = max(0, -iy), min(d.g.KH, d.h-iy)
	kx0, kx1 = max(0, -ix), min(d.g.KW, d.w-ix)
	if kx0 >= kx1 {
		ky1 = ky0
	}
	return
}

// ConvInto convolves the NHWC input x with the (KH,KW,C,F) kernel w into
// dst, which must be (N,OH,OW,F) (its contents are overwritten); dst ==
// nil allocates. It is an implicit GEMM: each output pixel reads the
// valid part of every kernel row as one contiguous run of input values
// and applies the nonzero ones four taps at a time, with no patch matrix
// and no packed panel. Padding taps are never visited. Every output
// element adds its products in ascending patch-column order, exactly as
// Im2Col followed by MatMulInto does, so results are bit-identical to
// that pair (up to which NaN payload survives where two NaNs meet).
// Output pixels are sharded across workers.
func ConvInto(dst, x, w *Tensor, g ConvGeom) (*Tensor, error) {
	d, err := convCheck(x, w, g)
	if err != nil {
		return nil, err
	}
	nb := x.shape[0]
	out := dst
	if out == nil {
		out = New(nb, d.oh, d.ow, d.n)
	} else if err := d.checkDst(out, nb); err != nil {
		return nil, err
	}
	xd, wd, od := x.data, w.data, out.data
	rows := nb * d.oh * d.ow
	// Like MatMulInto, the single-worker path calls the body directly:
	// a closure handed to Shard would be heap-allocated on every call.
	if workers := kernelWorkers(rows * len(wd)); workers <= 1 || rows == 1 {
		convPixels(xd, wd, od, d, 0, rows)
	} else {
		parallel.Shard(workers, rows, func(lo, hi int) {
			convPixels(xd, wd, od, d, lo, hi)
		})
	}
	return out, nil
}

// ConvWindowInto computes the output pixels of ConvInto in rows
// [y0,y1) and columns [x0,x1) of every batch image of dst, bit-identical
// to ConvInto, and leaves dst's other pixels as they are. It runs on the
// calling goroutine: cone replay calls it from campaign workers that
// already share the machine.
func ConvWindowInto(dst, x, w *Tensor, g ConvGeom, y0, y1, x0, x1 int) error {
	d, err := convCheck(x, w, g)
	if err != nil {
		return err
	}
	nb := x.shape[0]
	if err := d.checkDst(dst, nb); err != nil {
		return err
	}
	if y0 < 0 || y1 > d.oh || x0 < 0 || x1 > d.ow {
		return fmt.Errorf("%w: conv window [%d,%d)x[%d,%d) of %dx%d", ErrShape, y0, y1, x0, x1, d.oh, d.ow)
	}
	for b := 0; b < nb; b++ {
		for oy := y0; oy < y1; oy++ {
			row := (b*d.oh + oy) * d.ow
			convPixels(x.data, w.data, dst.data, d, row+x0, row+x1)
		}
	}
	return nil
}

// convCheck validates a (KH,KW,C,F) kernel against an NHWC input and
// returns the convolution's dimensions.
func convCheck(x, w *Tensor, g ConvGeom) (convDims, error) {
	if w.Rank() != 4 || x.Rank() != 4 || w.shape[0] != g.KH || w.shape[1] != g.KW || w.shape[2] != x.shape[3] {
		return convDims{}, fmt.Errorf("%w: conv kernel %v for input %v geom %+v", ErrShape, w.shape, x.shape, g)
	}
	return convDimsFor("conv", x.shape, g, len(w.data), w.shape[3])
}

// checkDst rejects a conv output that is not (nb,OH,OW,F).
func (d convDims) checkDst(out *Tensor, nb int) error {
	if out.Rank() != 4 || out.shape[0] != nb || out.shape[1] != d.oh || out.shape[2] != d.ow || out.shape[3] != d.n {
		return fmt.Errorf("%w: conv dst %v, want [%d %d %d %d]", ErrShape, out.shape, nb, d.oh, d.ow, d.n)
	}
	return nil
}

// convPixels is ConvInto's body for output pixels [lo, hi). Each pixel's
// output row is computed in blockN-wide column blocks; within a block the
// nonzero taps of all valid kernel rows feed one four-tap ring, so the
// block sees the tap sequence gemvTaps would see for the pixel's im2col
// row.
func convPixels(xd, wd, od []float32, d convDims, lo, hi int) {
	c, n, kw := d.c, d.n, d.g.KW
	for r := lo; r < hi; r++ {
		orow := od[r*n : (r+1)*n]
		clear(orow)
		b, iy, ix, ky0, ky1, kx0, kx1 := d.window(r)
		run := (kx1 - kx0) * c
		for j0 := 0; j0 < n; j0 += blockN {
			ob := orow[j0:min(j0+blockN, n)]
			width := len(ob)
			var off [4]int
			var av [4]float32
			nz := 0
			for ky := ky0; ky < ky1; ky++ {
				src := ((b*d.h+iy+ky)*d.w + ix + kx0) * c
				p := ((ky*kw+kx0)*c)*n + j0
				for t, v := range xd[src : src+run] {
					if v == 0 {
						continue
					}
					off[nz&3], av[nz&3] = p+t*n, v
					nz++
					if nz&3 == 0 {
						axpy4(ob, av[0], av[1], av[2], av[3],
							wd[off[0]:off[0]+width], wd[off[1]:off[1]+width], wd[off[2]:off[2]+width], wd[off[3]:off[3]+width])
					}
				}
			}
			axpyTail(ob, wd, &av, &off, nz)
		}
	}
}

// Col2Im scatters patch-row gradients back to NHWC input gradients; it is
// the adjoint of Im2Col. shape gives the original input shape.
func Col2Im(cols *Tensor, shape []int, g ConvGeom) (*Tensor, error) {
	if len(shape) != 4 {
		return nil, fmt.Errorf("%w: col2im wants NHWC shape, got %v", ErrShape, shape)
	}
	n, h, w, c := shape[0], shape[1], shape[2], shape[3]
	oh, ow := g.OutDims(h, w)
	rowLen := g.KH * g.KW * c
	if cols.Rank() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != rowLen {
		return nil, fmt.Errorf("%w: col2im cols %v for shape %v geom %+v", ErrShape, cols.shape, shape, g)
	}
	out := New(shape...)
	cd, od := cols.data, out.data
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := ((b*oh+oy)*ow + ox) * rowLen
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
						dst := ((b*h+iy)*w + ix) * c
						src := row + (ky*g.KW+kx)*c
						for ch := 0; ch < c; ch++ {
							od[dst+ch] += cd[src+ch]
						}
					}
				}
			}
		}
	}
	return out, nil
}
