package ops

import (
	"fmt"
	"math"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Int8 kernels: this file implements graph.QuantizedOp for every
// inference-path operator, the backend of the post-training-quantization
// pass (graph.Quantize).
//
//   - MatMul and Conv2D run an int8 GEMM with int32 accumulation. The
//     fused epilogue (BiasAdd + activation + RangerClip) folds into the
//     requantization: bias becomes an int32 accumulator offset, and ReLU
//     and the Ranger restriction become the clamp limits of the
//     saturating int8 write-back — the clamp the hardware performs
//     anyway, which is why range restriction is free in the quantized
//     domain.
//   - Elementwise operators (activations, Clip, Scale, Reshape, Concat
//     remaps) compile to 256-entry lookup tables: an int8 tensor has
//     only 256 distinct values, so any scalar transform is one table
//     lookup per element.
//   - Max pooling folds int8 rows (the encoding is monotone) and remaps
//     them through a table, which is skipped where it is the identity.
//     Add, a standalone BiasAdd and GEMMs with a non-canonical head run
//     their float stages block by block (tensor.QEpilogue) and
//     requantize each block; average pooling still requantizes per
//     element.

// Interface conformance for the quantization extension.
var (
	_ graph.QuantizedOp = (*Conv2DOp)(nil)
	_ graph.QuantizedOp = DenseOp{}
	_ graph.QuantizedOp = BiasAddOp{}
	_ graph.QuantizedOp = AddOp{}
	_ graph.QuantizedOp = (*ScaleOp)(nil)
	_ graph.QuantizedOp = (*unary)(nil)
	_ graph.QuantizedOp = (*ClipOp)(nil)
	_ graph.QuantizedOp = (*MaxPoolOp)(nil)
	_ graph.QuantizedOp = (*AvgPoolOp)(nil)
	_ graph.QuantizedOp = (*ReshapeOp)(nil)
	_ graph.QuantizedOp = ConcatOp{}
)

// scalarStageFunc composes the epilogue's stages into one scalar
// real-domain function for LUT building. StageBias is channel-indexed
// and cannot appear in a value-only path.
func scalarStageFunc(opF func(float32) float32, stages []tensor.Stage) (func(float32) float32, error) {
	for _, st := range stages {
		if st.Kind == tensor.StageBias {
			return nil, fmt.Errorf("quant: fused bias cannot fold into a lookup table")
		}
	}
	if opF == nil && len(stages) == 0 {
		return nil, nil
	}
	e := tensor.Epilogue(stages)
	return func(v float32) float32 {
		if opF != nil {
			v = opF(v)
		}
		return e.ApplyAt(v, 0)
	}, nil
}

// lutKernel builds a single-input kernel applying a 256-entry table.
func lutKernel(opName string, inQ, outQ tensor.QParams, opF func(float32) float32, stages []tensor.Stage) (graph.QuantKernel, error) {
	f, err := scalarStageFunc(opF, stages)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opName, err)
	}
	lut := tensor.NewLut(inQ, outQ, f)
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, _ *tensor.QScratch) error {
		if len(ins) != 1 || ins[0] == nil {
			return fmt.Errorf("%s: want 1 runtime input", opName)
		}
		xd, od := ins[0].Data(), out.Data()
		if len(xd) != len(od) {
			return fmt.Errorf("%s: %d elements into %d", opName, len(xd), len(od))
		}
		n, h, w, c := graph.Pixels(out)
		win.Spans(n, h, w, c, func(lo, hi int) {
			lut.Map(od[lo:hi], xd[lo:hi])
		})
		return nil
	}, nil
}

// canonicalBRC reports whether the epilogue is a subsequence of
// [bias, relu, clamp] — the shape whose quantized form needs no
// per-element float stage dispatch, only int32 bias folding and integer
// clamp limits.
func canonicalBRC(stages []tensor.Stage) (bias []float32, relu, clamp bool, lo, hi float32, ok bool) {
	next := 0
	for _, st := range stages {
		switch st.Kind {
		case tensor.StageBias:
			if next > 0 {
				return nil, false, false, 0, 0, false
			}
			bias = st.Vec
			next = 1
		case tensor.StageRelu:
			if next > 1 {
				return nil, false, false, 0, 0, false
			}
			relu = true
			next = 2
		case tensor.StageClamp:
			if next > 2 {
				return nil, false, false, 0, 0, false
			}
			clamp, lo, hi = true, st.Lo, st.Hi
			next = 3
		default:
			return nil, false, false, 0, 0, false
		}
	}
	return bias, relu, clamp, lo, hi, true
}

// gemmRequant builds the requantization epilogue of an int8 GEMM
// (whose accumulator is already zero-point-corrected): bias folding,
// and either integer clamp limits (canonical bias→relu→clamp chains,
// the fast path, on tensor.Requant) or the full float stage sequence
// (Tanh/Atan/Scale heads). The closure takes one row of n accumulators
// or a conv pixel pair's two (see tensor.QConvInto). All failure modes
// are configuration errors caught here at build time; the returned
// closure is infallible, which matters because QMatMul invokes it from
// concurrent shard workers.
func gemmRequant(n int, inQ, wQ, outQ tensor.QParams, stages []tensor.Stage) (func(acc []int32, outRow []int8), error) {
	m := inQ.Scale * wQ.Scale // int32 accumulator unit, in real value
	if bias, relu, clamp, lo, hi, ok := canonicalBRC(stages); ok {
		// Fast path: acc' = acc + biasQ; q = round(acc'*msc)+zo saturated
		// into [qlo, qhi]. corr holds the bias correction twice, for a
		// pixel pair's two rows.
		corr := make([]int32, 2*n)
		if bias != nil {
			if len(bias) != n {
				return nil, fmt.Errorf("quant: bias length %d for %d columns", len(bias), n)
			}
			for j, b := range bias {
				bq := math.Round(float64(b) / float64(m))
				if bq > math.MaxInt32 || bq < math.MinInt32 {
					return nil, fmt.Errorf("quant: bias %g overflows the int32 accumulator", b)
				}
				corr[j] = -int32(bq)
			}
			copy(corr[n:], corr[:n])
		}
		msc := m / outQ.Scale
		zo := outQ.Zero
		qlo, qhi := int32(-128), int32(127)
		if relu {
			// ReLU's floor is real 0, which quantizes exactly to the zero
			// point.
			if zo > qlo {
				qlo = zo
			}
		}
		if clamp {
			// The profiled restriction bounds map to int8 clamp limits once,
			// here at compile time: protection costs nothing at run time.
			if l := int32(outQ.Quantize(lo)); l > qlo {
				qlo = l
			}
			if h := int32(outQ.Quantize(hi)); h < qhi {
				qhi = h
			}
		}
		if qlo > qhi {
			qlo = qhi
		}
		return func(acc []int32, outRow []int8) {
			tensor.Requant(acc, corr, outRow, zo, msc, qlo, qhi)
		}, nil
	}
	// General path: dequantize the accumulators and run the float stages
	// (bias included — the column is the channel) block by block before
	// requantizing.
	for _, st := range stages {
		if st.Kind == tensor.StageBias && st.C != n {
			return nil, fmt.Errorf("quant: fused bias of %d elements for %d columns", st.C, n)
		}
	}
	qe := tensor.NewQEpilogue(stages, outQ)
	return func(acc []int32, outRow []int8) {
		qe.Requant(acc, outRow, m)
	}, nil
}

// quantizeWeights converts a float weight matrix to symmetric int8.
func quantizeWeights(w *tensor.Tensor) ([]int8, tensor.QParams) {
	maxAbs := 0.0
	for _, v := range w.Data() {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	p := tensor.QParamsSymmetric(maxAbs)
	wq := make([]int8, w.Size())
	for i, v := range w.Data() {
		wq[i] = p.Quantize(v)
	}
	return wq, p
}

// QuantKernel implements graph.QuantizedOp: int8 matmul with int32
// accumulation and a fused requantization epilogue.
func (d DenseOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	kernel, _, err := d.QuantKernelStored(spec)
	return kernel, err
}

// QuantKernelStored implements graph.QuantStoredOp: the compiled kernel
// plus the stored int8 weight buffer it reads — the int8 backend's
// persistent weight-memory fault surface.
func (DenseOp) QuantKernelStored(spec graph.QuantSpec) (graph.QuantKernel, []int8, error) {
	if len(spec.Consts) != 2 || spec.Consts[1] == nil {
		return nil, nil, fmt.Errorf("matmul: quantization needs a constant weight matrix")
	}
	w := spec.Consts[1]
	if w.Rank() != 2 {
		return nil, nil, fmt.Errorf("matmul: weight rank %d", w.Rank())
	}
	k, n := w.Dim(0), w.Dim(1)
	wq, wQ := quantizeWeights(w)
	requant, err := gemmRequant(n, spec.In[0], wQ, spec.Out, spec.Epilogue)
	if err != nil {
		return nil, nil, err
	}
	za := spec.In[0].Zero
	// Dense has no window geometry: it always computes the whole output.
	return func(ins []*tensor.QTensor, out *tensor.QTensor, _ graph.Window, tmp *tensor.QScratch) error {
		x := ins[0]
		if x == nil || x.Rank() != 2 || x.Dim(1) != k {
			return fmt.Errorf("matmul: quantized input does not match (?,%d)", k)
		}
		return tensor.QMatMul(x.Data(), za, x.Dim(0), k, wq, n, out.Data(), requant, tmp)
	}, wq, nil
}

// QuantKernel implements graph.QuantizedOp: an int8 implicit-GEMM
// convolution (tensor.QConvInto) with the shared requantization epilogue.
func (c *Conv2DOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	kernel, _, err := c.QuantKernelStored(spec)
	return kernel, err
}

// QuantKernelStored implements graph.QuantStoredOp: the compiled kernel
// plus the stored int8 filter buffer it reads.
func (c *Conv2DOp) QuantKernelStored(spec graph.QuantSpec) (graph.QuantKernel, []int8, error) {
	if len(spec.Consts) != 2 || spec.Consts[1] == nil {
		return nil, nil, fmt.Errorf("conv2d: quantization needs a constant kernel")
	}
	w := spec.Consts[1]
	if w.Rank() != 4 {
		return nil, nil, fmt.Errorf("conv2d: kernel rank %d", w.Rank())
	}
	n := w.Dim(3)
	wq, wQ := quantizeWeights(w)
	requant, err := gemmRequant(n, spec.In[0], wQ, spec.Out, spec.Epilogue)
	if err != nil {
		return nil, nil, err
	}
	geom := c.Geom
	za := spec.In[0].Zero
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, tmp *tensor.QScratch) error {
		x := ins[0]
		if x == nil || out.Rank() != 4 {
			return fmt.Errorf("conv2d: want a quantized input and an NHWC output")
		}
		if win == (graph.Window{Y1: out.Dim(1), X1: out.Dim(2)}) {
			return tensor.QConvInto(x, za, geom, wq, n, out.Data(), requant, tmp)
		}
		return tensor.QConvWindowInto(x, za, geom, wq, n, out.Data(), requant, tmp, win.Y0, win.Y1, win.X0, win.X1)
	}, wq, nil
}

// QuantKernel implements graph.QuantizedOp for a standalone BiasAdd
// (one that did not fuse into its producer, e.g. at a campaign
// observation point): the Add kernel's float leg with the channel bias
// as its first stage in place of a second operand.
func (BiasAddOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	if len(spec.Consts) != 2 || spec.Consts[1] == nil {
		return nil, fmt.Errorf("biasadd: quantization needs a constant bias vector")
	}
	b := spec.Consts[1]
	if b.Rank() != 1 {
		return nil, fmt.Errorf("biasadd: bias rank %d", b.Rank())
	}
	bd := b.Data()
	c := len(bd)
	if c == 0 {
		return nil, fmt.Errorf("biasadd: empty bias vector")
	}
	inQ := spec.In[0]
	stages := append([]tensor.Stage{{Kind: tensor.StageBias, Vec: bd, C: c}}, spec.Epilogue...)
	qe := tensor.NewQEpilogue(stages, spec.Out)
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, _ *tensor.QScratch) error {
		x := ins[0]
		if x == nil || x.Size() != out.Size() {
			return fmt.Errorf("biasadd: quantized input/output mismatch")
		}
		if r := out.Rank(); r == 0 || out.Dim(r-1) != c {
			return fmt.Errorf("biasadd: %d biases for output shape %v", c, out.Shape())
		}
		xd, od := x.Data(), out.Data()
		pn, ph, pw, pc := graph.Pixels(out)
		win.Spans(pn, ph, pw, pc, func(lo, hi int) {
			qe.Add(od[lo:hi], xd[lo:hi], nil, inQ, tensor.QParams{})
		})
		return nil
	}, nil
}

// QuantKernel implements graph.QuantizedOp: the residual add rescales
// both operands into the real domain, runs the epilogue and requantizes
// the sum (tensor.QEpilogue.Add).
func (AddOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	if len(spec.In) != 2 {
		return nil, fmt.Errorf("add: want 2 inputs, got %d", len(spec.In))
	}
	if spec.Consts[0] != nil || spec.Consts[1] != nil {
		return nil, fmt.Errorf("add: constant operands are not supported")
	}
	qe := tensor.NewQEpilogue(spec.Epilogue, spec.Out)
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, _ *tensor.QScratch) error {
		a, b := ins[0], ins[1]
		if a == nil || b == nil || a.Size() != b.Size() || a.Size() != out.Size() {
			return fmt.Errorf("add: quantized operand mismatch")
		}
		ad, bd, od := a.Data(), b.Data(), out.Data()
		pa, pb := a.P, b.P
		n, h, w, c := graph.Pixels(out)
		win.Spans(n, h, w, c, func(lo, hi int) {
			qe.Add(od[lo:hi], ad[lo:hi], bd[lo:hi], pa, pb)
		})
		return nil
	}, nil
}

// QuantKernel implements graph.QuantizedOp via a lookup table.
func (s *ScaleOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	factor := s.Factor
	return lutKernel("scale", spec.In[0], spec.Out, func(v float32) float32 { return v * factor }, spec.Epilogue)
}

// QuantKernel implements graph.QuantizedOp: every activation is a
// 256-entry lookup table between the input and output domains.
func (u *unary) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	return lutKernel(u.typ, spec.In[0], spec.Out, u.f, spec.Epilogue)
}

// QuantKernel implements graph.QuantizedOp for a standalone RangerClip.
// The deterministic policies are scalar transforms and compile to a
// table; PolicyRandom depends on the element index and cannot.
func (c *ClipOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	if c.Low > c.High {
		return nil, fmt.Errorf("clip: low %g > high %g", c.Low, c.High)
	}
	var f func(float32) float32
	switch c.Policy {
	case PolicyZero:
		lo, hi := c.Low, c.High
		f = func(v float32) float32 {
			if v < lo || v > hi {
				return 0
			}
			return v
		}
	case PolicyRandom:
		return nil, fmt.Errorf("clip: random policy is index-dependent and has no int8 kernel")
	default:
		lo, hi := c.Low, c.High
		f = func(v float32) float32 {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
	}
	return lutKernel("clip", spec.In[0], spec.Out, f, spec.Epilogue)
}

// QuantKernel implements graph.QuantizedOp: max pooling commutes with
// the monotone int8 encoding, so the window max runs directly on int8
// and a table remaps into the output domain. Like the fp32 kernel it
// runs channel-contiguous: each output pixel's row starts as its first
// valid tap's input row (-128 when the window holds none), folds in
// every other valid tap's row and is then mapped through the table in
// place, which an identity table skips.
func (p *MaxPoolOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	f, err := scalarStageFunc(nil, spec.Epilogue)
	if err != nil {
		return nil, fmt.Errorf("maxpool: %w", err)
	}
	lut := tensor.NewLut(spec.In[0], spec.Out, f)
	g := p.Geom
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, _ *tensor.QScratch) error {
		x := ins[0]
		if x == nil || x.Rank() != 4 || out.Rank() != 4 {
			return fmt.Errorf("maxpool: want quantized NHWC input")
		}
		n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
		oh, ow := out.Dim(1), out.Dim(2)
		xd, od := x.Data(), out.Data()
		for b := 0; b < n; b++ {
			for oy := win.Y0; oy < win.Y1; oy++ {
				for ox := win.X0; ox < win.X1; ox++ {
					o := ((b*oh+oy)*ow + ox) * c
					best := od[o : o+c]
					seeded := false
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
							i := ((b*h+iy)*w + ix) * c
							if seeded {
								tensor.QMaxInto(best, xd[i:i+c])
							} else {
								copy(best, xd[i:i+c])
								seeded = true
							}
						}
					}
					if !seeded {
						for ch := range best {
							best[ch] = -128
						}
					}
					lut.Map(best, best)
				}
			}
		}
		return nil
	}, nil
}

// QuantKernel implements graph.QuantizedOp: average pooling accumulates
// the window in int32 and requantizes the mean per element.
func (p *AvgPoolOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	inQ, outQ := spec.In[0], spec.Out
	epi := tensor.Epilogue(spec.Epilogue)
	for _, st := range spec.Epilogue {
		if st.Kind == tensor.StageBias {
			return nil, fmt.Errorf("avgpool: fused bias is not supported")
		}
	}
	g := p.Geom
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, _ *tensor.QScratch) error {
		x := ins[0]
		if x == nil || x.Rank() != 4 || out.Rank() != 4 {
			return fmt.Errorf("avgpool: want quantized NHWC input")
		}
		n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
		oh, ow := out.Dim(1), out.Dim(2)
		xd, od := x.Data(), out.Data()
		for b := 0; b < n; b++ {
			for oy := win.Y0; oy < win.Y1; oy++ {
				for ox := win.X0; ox < win.X1; ox++ {
					for ch := 0; ch < c; ch++ {
						var sum, count int32
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
								sum += int32(xd[((b*h+iy)*w+ix)*c+ch])
								count++
							}
						}
						oidx := ((b*oh+oy)*ow+ox)*c + ch
						if count == 0 {
							od[oidx] = outQ.Quantize(epi.ApplyAt(0, oidx))
							continue
						}
						v := inQ.Scale * float32(sum-count*inQ.Zero) / float32(count)
						od[oidx] = outQ.Quantize(epi.ApplyAt(v, oidx))
					}
				}
			}
		}
		return nil
	}, nil
}

// QuantKernel implements graph.QuantizedOp: reshape preserves element
// order, so it is a table remap into the (possibly different) output
// domain.
func (r *ReshapeOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	return lutKernel("reshape", spec.In[0], spec.Out, nil, spec.Epilogue)
}

// QuantKernel implements graph.QuantizedOp: each input gets its own
// remap table into the output domain and copies into its channel
// stripe.
func (ConcatOp) QuantKernel(spec graph.QuantSpec) (graph.QuantKernel, error) {
	if len(spec.In) < 2 {
		return nil, fmt.Errorf("concat: want >=2 inputs, got %d", len(spec.In))
	}
	f, err := scalarStageFunc(nil, spec.Epilogue)
	if err != nil {
		return nil, fmt.Errorf("concat: %w", err)
	}
	luts := make([]tensor.Lut, len(spec.In))
	for i, inQ := range spec.In {
		if spec.Consts[i] != nil {
			return nil, fmt.Errorf("concat: constant operands are not supported")
		}
		luts[i] = tensor.NewLut(inQ, spec.Out, f)
	}
	return func(ins []*tensor.QTensor, out *tensor.QTensor, win graph.Window, _ *tensor.QScratch) error {
		r := out.Rank()
		if r == 0 {
			return fmt.Errorf("concat: scalar output")
		}
		totalC := out.Dim(r - 1)
		// Rows are the output's pixels for NHWC; any other rank is one
		// pixel, whose window is every row.
		n, h, w := 1, 1, out.Size()/totalC
		if r == 4 {
			n, h, w = out.Dim(0), out.Dim(1), out.Dim(2)
		} else {
			win = graph.Window{Y1: 1, X1: w}
		}
		od := out.Data()
		off := 0
		for i, t := range ins {
			if t == nil {
				return fmt.Errorf("concat: missing quantized input %d", i)
			}
			c := t.Dim(t.Rank() - 1)
			td := t.Data()
			lut := luts[i]
			win.Spans(n, h, w, 1, func(lo, hi int) {
				for row := lo; row < hi; row++ {
					lut.Map(od[row*totalC+off:row*totalC+off+c], td[row*c:(row+1)*c])
				}
			})
			off += c
		}
		if off != totalC {
			return fmt.Errorf("concat: channel stripes sum to %d, output has %d", off, totalC)
		}
		return nil
	}, nil
}
