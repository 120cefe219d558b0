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
	simd      bool // run the AVX2 block kernels (simd_amd64.s)
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
	// The block kernels need a full 4-column block.
	d.simd = useAVX2 && n >= 4
	return d, nil
}

// rowAt returns output pixel r's batch index, the input row iy of its
// window's top tap, the valid kernel rows [ky0,ky1) (the rows that fall
// inside the input rather than on padding; empty when ky1 <= ky0) and
// the input column ix of the window's left tap. Along an output row
// only ix changes, by one stride per pixel.
func (d convDims) rowAt(r int) (b, iy, ky0, ky1, ix int) {
	b = r / (d.oh * d.ow)
	iy = r/d.ow%d.oh*d.g.SH - d.g.PadH
	ix = r%d.ow*d.g.SW - d.g.PadW
	return b, iy, max(0, -iy), min(d.g.KH, d.h-iy), ix
}

// cols returns the valid kernel columns [kx0,kx1) of a window in the
// kernel rows [ky0,ky1) whose left tap is at input column ix, and the
// end of its row range, cut to ky0 when no column is valid: a window
// without a valid tap has an empty row range.
func (d convDims) cols(ix, ky0, ky1 int) (kx0, kx1, wy1 int) {
	kx0, kx1 = max(0, -ix), min(d.g.KW, d.w-ix)
	if kx0 >= kx1 {
		return kx0, kx1, ky0
	}
	return kx0, kx1, ky1
}

// checkSIMD panics unless the input, kernel and output slices hold
// every element the block kernels may touch for nb batch images. Every
// window the walkers hand them lies inside its input image (rowAt and
// cols clip it to the valid taps, and a pair's second window is the
// same window one stride along the same input row), its taps index at
// most the whole kernel, and it writes one output pixel, so these three
// lengths bound every address the assembly reads or writes. The callers
// run it once per call.
func (d convDims) checkSIMD(nx, nw, nout, nb int) {
	if nx < nb*d.h*d.w*d.c || nw < d.g.KH*d.g.KW*d.c*d.n || nout < nb*d.oh*d.ow*d.n {
		panic(fmt.Sprintf("tensor: conv operands of %d, %d and %d elements for %d images of %dx%dx%d to %dx%dx%d",
			nx, nw, nout, nb, d.h, d.w, d.c, d.oh, d.ow, d.n))
	}
}

// ConvInto convolves the NHWC input x with the (KH,KW,C,F) kernel w into
// dst, which must be (N,OH,OW,F) (its contents are overwritten); dst ==
// nil allocates. It is an implicit GEMM: each output pixel reads the
// valid part of every kernel row as one contiguous run of input values
// and applies the nonzero ones four taps at a time, with no patch matrix
// and no packed panel. Padding taps are never visited. Neighbouring
// pixels of one output row with the same valid window are computed as a
// pair that loads each weight row once for both (see convPixels). Every
// output element adds its products in ascending patch-column order,
// exactly as Im2Col followed by MatMulInto does, so results are
// bit-identical to that pair of calls (up to which NaN payload survives
// where two NaNs meet). Output pixels are sharded across workers; a
// shard boundary may split a pair, whose halves are then single pixels.
// On amd64 with AVX2 and for n >= 4, pixels and pairs run on the block
// kernels of simd_amd64.s instead, with the same results bit for bit
// (see convPairAt).
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
	if d.simd {
		d.checkSIMD(len(xd), len(wd), len(od), nb)
	}
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
// to ConvInto, and leaves dst's other pixels as they are. Pixels pair
// within each window row, from column x0. It runs on the calling
// goroutine: cone replay calls it from campaign workers that already
// share the machine.
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
	if d.simd {
		d.checkSIMD(len(x.data), len(w.data), len(dst.data), nb)
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

// convPixels is ConvInto's body for output pixels [lo, hi), the fp32
// mirror of qconvPixels. It walks each output row once, stepping the
// window's left input column by the stride. Pixels r and r+1 of one
// output row with the same valid window go through convPairAt; every
// other pixel — one whose neighbour's window differs at the border, the
// last of a row, the last of [lo, hi) — goes through convPixelAt.
func convPixels(xd, wd, od []float32, d convDims, lo, hi int) {
	n, sw := d.n, d.g.SW
	for r := lo; r < hi; {
		b, iy, ky0, ky1, ix := d.rowAt(r)
		for end := min(hi, r-r%d.ow+d.ow); r < end; {
			kx0, kx1, wy1 := d.cols(ix, ky0, ky1)
			if r+1 < end {
				if nx0, nx1, _ := d.cols(ix+sw, ky0, ky1); nx0 == kx0 && nx1 == kx1 {
					convPairAt(xd, wd, od[r*n:(r+1)*n], od[(r+1)*n:(r+2)*n], d, b, iy, ix, ky0, wy1, kx0, kx1)
					r, ix = r+2, ix+2*sw
					continue
				}
			}
			convPixelAt(xd, wd, od[r*n:(r+1)*n], d, b, iy, ix, ky0, wy1, kx0, kx1)
			r, ix = r+1, ix+sw
		}
	}
}

// convPairAt computes a pixel pair into o0 and o1, with the AVX2 block
// kernel when d.simd and with convPair otherwise. Its results equal
// convPixel's bit for bit: a pair adds 0·w wherever one of its pixels
// has a zero input, and the block kernel adds every tap of the window,
// zero inputs included. That changes nothing unless w is ±Inf or NaN,
// when it makes a NaN (see the four-tap notes in matmul.go). So a pair
// with a NaN in either output row is recomputed pixel by pixel, which
// gives convPixel's exact bits, NaN payloads included. Scanning the two
// rows (the block kernel flags NaNs as it stores) costs far less than
// scanning the weights for non-finite values on every call would.
func convPairAt(xd, wd, o0, o1 []float32, d convDims, b, iy, ix, ky0, ky1, kx0, kx1 int) {
	var nan bool
	if d.simd && ky0 < ky1 {
		c, n, kw := d.c, d.n, d.g.KW
		nan = convPairAVX2(&xd[((b*d.h+iy+ky0)*d.w+ix+kx0)*c], &wd[(ky0*kw+kx0)*c*n], &o0[0], &o1[0],
			ky1-ky0, (kx1-kx0)*c, d.w*c, d.g.SW*c, kw*c*n, n)
	} else {
		convPair(xd, wd, o0, o1, d, b, iy, ix, ky0, ky1, kx0, kx1)
		nan = hasNaN(o0) || hasNaN(o1)
	}
	if nan {
		convPixel(xd, wd, o0, d, b, iy, ix, ky0, ky1, kx0, kx1)
		convPixel(xd, wd, o1, d, b, iy, ix+d.g.SW, ky0, ky1, kx0, kx1)
	}
}

// convPixelAt computes one output pixel into orow, with the AVX2 block
// kernel when d.simd and with convPixel otherwise. Like a pair, the
// block kernel adds every tap, so a pixel whose row it leaves with a
// NaN is recomputed by convPixel.
func convPixelAt(xd, wd, orow []float32, d convDims, b, iy, ix, ky0, ky1, kx0, kx1 int) {
	if d.simd && ky0 < ky1 {
		c, n, kw := d.c, d.n, d.g.KW
		if !convPixelAVX2(&xd[((b*d.h+iy+ky0)*d.w+ix+kx0)*c], &wd[(ky0*kw+kx0)*c*n], &orow[0],
			ky1-ky0, (kx1-kx0)*c, d.w*c, kw*c*n, n) {
			return
		}
	}
	convPixel(xd, wd, orow, d, b, iy, ix, ky0, ky1, kx0, kx1)
}

// hasNaN reports whether any element of v is a NaN.
func hasNaN(v []float32) bool {
	for _, f := range v {
		if f != f {
			return true
		}
	}
	return false
}

// convPixel computes one output pixel, whose window convPixels found,
// into the n-long orow, in blockN-wide column blocks; within a block the
// nonzero taps of all valid kernel rows feed one four-tap ring, so the
// block sees the tap sequence gemvTaps would see for the pixel's im2col
// row.
func convPixel(xd, wd, orow []float32, d convDims, b, iy, ix, ky0, ky1, kx0, kx1 int) {
	c, n, kw := d.c, d.n, d.g.KW
	clear(orow)
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

// convPair computes the pixel whose window convPixels found into o0
// and its right-hand neighbour, which has the same valid window one
// stride further along the input row, into o1. It walks the union of
// the two pixels' nonzero taps in ascending order, skipping a tap only
// when both inputs are 0, and applies them four at a time with
// axpy4x2, and the last nz%4 with axpyTailPair, both of which load each
// weight row once for both pixels.
func convPair(xd, wd, o0, o1 []float32, d convDims, b, iy, ix, ky0, ky1, kx0, kx1 int) {
	c, n, kw := d.c, d.n, d.g.KW
	clear(o0)
	clear(o1)
	run, next := (kx1-kx0)*c, d.g.SW*c
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := min(j0+blockN, n)
		ob0, ob1 := o0[j0:j1], o1[j0:j1]
		width := j1 - j0
		var off [4]int
		var av, bv [4]float32
		nz := 0
		for ky := ky0; ky < ky1; ky++ {
			src := ((b*d.h+iy+ky)*d.w + ix + kx0) * c
			p := ((ky*kw+kx0)*c)*n + j0
			x1 := xd[src+next : src+next+run]
			for t, v := range xd[src : src+run] {
				u := x1[t]
				if v == 0 && u == 0 {
					continue
				}
				off[nz&3], av[nz&3], bv[nz&3] = p+t*n, v, u
				nz++
				if nz&3 == 0 {
					axpy4x2(ob0, ob1, &av, &bv,
						wd[off[0]:off[0]+width], wd[off[1]:off[1]+width], wd[off[2]:off[2]+width], wd[off[3]:off[3]+width])
				}
			}
		}
		axpyTailPair(ob0, ob1, wd, &av, &bv, &off, nz)
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
