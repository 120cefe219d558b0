package ops

import (
	"fmt"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Plan support: this file implements the three optional operator
// extensions the compiled-execution layer (graph.Compile) uses.
//
//   - graph.ShapeOp: compile-time output-shape inference, which powers
//     static buffer assignment and up-front shape validation.
//   - graph.PlannedOp: evaluation of a window of output pixels into a
//     plan-assigned output buffer, the one fp32 kernel of every planned
//     step in full, suffix and cone replay (window.go maps the windows).
//   - graph.FusableOp: elementwise epilogue stages, letting
//     MatMul/Conv2D + BiasAdd + activation + RangerClip chains run as a
//     single loop. Every stage reproduces the unfused operator's scalar
//     arithmetic exactly, so fused execution is bit-identical.

// Interface conformance for the plan extensions.
var (
	_ graph.ShapeOp = (*Conv2DOp)(nil)
	_ graph.ShapeOp = DenseOp{}
	_ graph.ShapeOp = BiasAddOp{}
	_ graph.ShapeOp = AddOp{}
	_ graph.ShapeOp = (*ScaleOp)(nil)
	_ graph.ShapeOp = (*unary)(nil)
	_ graph.ShapeOp = (*ClipOp)(nil)
	_ graph.ShapeOp = (*MaxPoolOp)(nil)
	_ graph.ShapeOp = (*AvgPoolOp)(nil)
	_ graph.ShapeOp = (*ReshapeOp)(nil)
	_ graph.ShapeOp = ConcatOp{}
	_ graph.ShapeOp = SoftmaxOp{}
	_ graph.ShapeOp = XentOp{}
	_ graph.ShapeOp = MSEOp{}

	_ graph.PlannedOp = (*Conv2DOp)(nil)
	_ graph.PlannedOp = DenseOp{}
	_ graph.PlannedOp = BiasAddOp{}
	_ graph.PlannedOp = AddOp{}
	_ graph.PlannedOp = (*ScaleOp)(nil)
	_ graph.PlannedOp = (*unary)(nil)
	_ graph.PlannedOp = (*ClipOp)(nil)
	_ graph.PlannedOp = (*MaxPoolOp)(nil)
	_ graph.PlannedOp = (*AvgPoolOp)(nil)

	_ graph.FusableOp = BiasAddOp{}
	_ graph.FusableOp = (*unary)(nil)
	_ graph.FusableOp = (*ClipOp)(nil)
	_ graph.FusableOp = (*ScaleOp)(nil)
)

// nhwcConvShape validates and infers the output shape shared by Conv2D
// and the pooling ops.
func nhwcConvShape(opName string, in []int, geom tensor.ConvGeom, outC int) ([]int, error) {
	if len(in) != 4 {
		return nil, fmt.Errorf("%s: want NHWC input, got %v", opName, in)
	}
	oh, ow := geom.OutDims(in[1], in[2])
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%s: empty output for input %v geom %+v", opName, in, geom)
	}
	return []int{in[0], oh, ow, outC}, nil
}

// InferShape implements graph.ShapeOp.
func (c *Conv2DOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("conv2d: want (input, kernel), got %d inputs", len(ins))
	}
	x, w := ins[0], ins[1]
	if len(x) != 4 || len(w) != 4 {
		return nil, fmt.Errorf("conv2d: ranks %d, %d", len(x), len(w))
	}
	if w[0] != c.Geom.KH || w[1] != c.Geom.KW || w[2] != x[3] {
		return nil, fmt.Errorf("conv2d: kernel %v vs input %v geom %+v", w, x, c.Geom)
	}
	return nhwcConvShape("conv2d", x, c.Geom, w[3])
}

// EvalInto implements graph.PlannedOp: the implicit-GEMM kernel reads
// the taps straight from the input and writes the product into out, the
// whole value through tensor.ConvInto and a window through its pixel
// rows (tensor.ConvWindowInto), so the step needs no scratch
// (bit-identical to the im2col + MatMulInto path of Eval).
func (c *Conv2DOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 2 {
		return fmt.Errorf("conv2d: want (input, kernel), got %d inputs", len(in))
	}
	if _, h, w, _ := graph.Pixels(out); win == (graph.Window{Y1: h, X1: w}) {
		_, err := tensor.ConvInto(out, in[0], in[1], c.Geom)
		return err
	}
	return tensor.ConvWindowInto(out, in[0], in[1], c.Geom, win.Y0, win.Y1, win.X0, win.X1)
}

// InferShape implements graph.ShapeOp.
func (DenseOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("matmul: want (input, weights), got %d inputs", len(ins))
	}
	a, b := ins[0], ins[1]
	if len(a) != 2 || len(b) != 2 || a[1] != b[0] {
		return nil, fmt.Errorf("%w: matmul %v x %v", tensor.ErrShape, a, b)
	}
	return []int{a[0], b[1]}, nil
}

// EvalInto implements graph.PlannedOp; its output is one pixel, so win
// is always the whole value.
func (DenseOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, _ graph.Window) error {
	if len(in) != 2 {
		return fmt.Errorf("matmul: want (input, weights), got %d inputs", len(in))
	}
	_, err := tensor.MatMulInto(out, in[0], in[1])
	return err
}

// InferShape implements graph.ShapeOp.
func (BiasAddOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("biasadd: want (input, bias), got %d inputs", len(ins))
	}
	x, b := ins[0], ins[1]
	if len(x) == 0 || len(b) != 1 || b[0] != x[len(x)-1] {
		return nil, fmt.Errorf("biasadd: bias %v for input %v", b, x)
	}
	return x, nil
}

// EvalInto implements graph.PlannedOp.
func (BiasAddOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 2 || in[0].Size() != out.Size() || in[1].Rank() != 1 ||
		out.Rank() == 0 || in[1].Size() != out.Dim(out.Rank()-1) {
		return fmt.Errorf("biasadd: want (input, bias) matching the output")
	}
	xd, bd, od := in[0].Data(), in[1].Data(), out.Data()
	spans(out, win, func(lo, hi int) { biasAdd(xd[lo:hi], bd, od[lo:hi]) })
	return nil
}

// FuseSpec implements graph.FusableOp: BiasAdd becomes a broadcast-add
// stage whose vector binds to the live bias tensor at run time.
func (BiasAddOp) FuseSpec() (tensor.Stage, bool) {
	return tensor.Stage{Kind: tensor.StageBias}, true
}

// InferShape implements graph.ShapeOp.
func (AddOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("add: want 2 inputs, got %d", len(ins))
	}
	if !sameShape(ins[0], ins[1]) {
		return nil, fmt.Errorf("%w: add %v + %v", tensor.ErrShape, ins[0], ins[1])
	}
	return ins[0], nil
}

// EvalInto implements graph.PlannedOp.
func (AddOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 2 || in[0].Size() != out.Size() || in[1].Size() != out.Size() {
		return fmt.Errorf("add: want 2 inputs shaped like the output")
	}
	ad, bd, od := in[0].Data(), in[1].Data(), out.Data()
	spans(out, win, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] + bd[i]
		}
	})
	return nil
}

// InferShape implements graph.ShapeOp.
func (s *ScaleOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("scale: want 1 input, got %d", len(ins))
	}
	return ins[0], nil
}

// EvalInto implements graph.PlannedOp.
func (s *ScaleOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 1 || in[0].Size() != out.Size() {
		return fmt.Errorf("scale: want 1 input shaped like the output")
	}
	a, xd, od := s.Factor, in[0].Data(), out.Data()
	spans(out, win, func(lo, hi int) {
		o := od[lo:hi]
		for i, v := range xd[lo:hi] {
			o[i] = v * a
		}
	})
	return nil
}

// FuseSpec implements graph.FusableOp.
func (s *ScaleOp) FuseSpec() (tensor.Stage, bool) {
	return tensor.Stage{Kind: tensor.StageScale, A: s.Factor}, true
}

// InferShape implements graph.ShapeOp.
func (u *unary) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("%s: want 1 input, got %d", u.typ, len(ins))
	}
	return ins[0], nil
}

// EvalInto implements graph.PlannedOp.
func (u *unary) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 1 || in[0].Size() != out.Size() {
		return fmt.Errorf("%s: want 1 input shaped like the output", u.typ)
	}
	f, xd, od := u.f, in[0].Data(), out.Data()
	spans(out, win, func(lo, hi int) {
		o := od[lo:hi]
		for i, v := range xd[lo:hi] {
			o[i] = f(v)
		}
	})
	return nil
}

// FuseSpec implements graph.FusableOp: ReLU gets the branch-only stage,
// every other activation fuses through its scalar function.
func (u *unary) FuseSpec() (tensor.Stage, bool) {
	if u.typ == TypeRelu {
		return tensor.Stage{Kind: tensor.StageRelu}, true
	}
	return tensor.Stage{Kind: tensor.StageMap, F: u.f}, true
}

// InferShape implements graph.ShapeOp.
func (c *ClipOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("clip: want 1 input, got %d", len(ins))
	}
	return ins[0], nil
}

// EvalInto implements graph.PlannedOp.
func (c *ClipOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 1 || in[0].Size() != out.Size() {
		return fmt.Errorf("clip: want 1 input shaped like the output")
	}
	if c.Low > c.High {
		return fmt.Errorf("clip: low %g > high %g", c.Low, c.High)
	}
	xd, od := in[0].Data(), out.Data()
	spans(out, win, func(lo, hi int) { c.clip(xd[lo:hi], od[lo:hi], lo) })
	return nil
}

// FuseSpec implements graph.FusableOp: only the paper's default
// truncation policy fuses; PolicyZero and PolicyRandom nodes stay
// materialized (and an inverted bound stays on the erroring path).
func (c *ClipOp) FuseSpec() (tensor.Stage, bool) {
	if c.Policy != 0 && c.Policy != PolicyClip {
		return tensor.Stage{}, false
	}
	if c.Low > c.High {
		return tensor.Stage{}, false
	}
	return tensor.Stage{Kind: tensor.StageClamp, Lo: c.Low, Hi: c.High}, true
}

// InferShape implements graph.ShapeOp.
func (p *MaxPoolOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("maxpool: want 1 input, got %d", len(ins))
	}
	return nhwcConvShape("maxpool", ins[0], p.Geom, ins[0][len(ins[0])-1])
}

// EvalInto implements graph.PlannedOp.
func (p *MaxPoolOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 1 || in[0].Rank() != 4 || out.Rank() != 4 {
		return fmt.Errorf("maxpool: want one NHWC input")
	}
	p.pool(in[0], out, nil, win)
	return nil
}

// InferShape implements graph.ShapeOp.
func (p *AvgPoolOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("avgpool: want 1 input, got %d", len(ins))
	}
	return nhwcConvShape("avgpool", ins[0], p.Geom, ins[0][len(ins[0])-1])
}

// EvalInto implements graph.PlannedOp.
func (p *AvgPoolOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) != 1 || in[0].Rank() != 4 || out.Rank() != 4 {
		return fmt.Errorf("avgpool: want one NHWC input")
	}
	p.pool(in[0], out, win)
	return nil
}

// InferShape implements graph.ShapeOp.
func (r *ReshapeOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("reshape: want 1 input, got %d", len(ins))
	}
	x := ins[0]
	if len(x) < 1 {
		return nil, fmt.Errorf("reshape: scalar input")
	}
	total := 1
	for _, d := range x {
		total *= d
	}
	return tensor.ResolveShape(total, append([]int{x[0]}, r.TailShape...))
}

// EvalInto implements graph.PlannedOp: under a plan the reshape copies
// into its own slot, so — like the allocating Eval's clone — its output
// never aliases the producer's buffer, which the fault injector's
// in-place corruption relies on. Reshape has no window map, so win is
// always the whole value.
func (r *ReshapeOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, _ graph.Window) error {
	if len(in) != 1 {
		return fmt.Errorf("reshape: want 1 input, got %d", len(in))
	}
	if in[0].Size() != out.Size() {
		return fmt.Errorf("reshape: %d elements into %d", in[0].Size(), out.Size())
	}
	copy(out.Data(), in[0].Data())
	return nil
}

// InferShape implements graph.ShapeOp.
func (ConcatOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) < 2 {
		return nil, fmt.Errorf("concat: want >=2 inputs, got %d", len(ins))
	}
	r := len(ins[0])
	if r == 0 {
		return nil, fmt.Errorf("concat: scalar input")
	}
	totalC := 0
	for _, s := range ins {
		if len(s) != r {
			return nil, fmt.Errorf("concat: rank mismatch %d vs %d", len(s), r)
		}
		if !sameShape(s[:r-1], ins[0][:r-1]) {
			return nil, fmt.Errorf("concat: leading dims %v vs %v", s, ins[0])
		}
		totalC += s[r-1]
	}
	out := append([]int{}, ins[0][:r-1]...)
	return append(out, totalC), nil
}

// EvalInto implements graph.PlannedOp: each input's channel stripe of
// the window's pixels is copied straight into its offset of the
// slot-backed output rows. A non-NHWC output is one pixel, so its
// window is every row.
func (ConcatOp) EvalInto(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window) error {
	if len(in) < 2 {
		return fmt.Errorf("concat: want >=2 inputs, got %d", len(in))
	}
	r := out.Rank()
	if r == 0 || out.Dim(r-1) == 0 {
		return fmt.Errorf("concat: output %v has no channels", out.Shape())
	}
	totalC := out.Dim(r - 1)
	n, h, w := 1, 1, out.Size()/totalC
	if r == 4 {
		n, h, w = out.Dim(0), out.Dim(1), out.Dim(2)
	} else {
		win = graph.Window{Y1: 1, X1: w}
	}
	od := out.Data()
	off := 0
	for _, t := range in {
		if t.Rank() != r || t.Size() != n*h*w*t.Dim(r-1) {
			return fmt.Errorf("concat: input %v for output %v", t.Shape(), out.Shape())
		}
		c, td := t.Dim(r-1), t.Data()
		win.Spans(n, h, w, 1, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				copy(od[p*totalC+off:p*totalC+off+c], td[p*c:(p+1)*c])
			}
		})
		off += c
	}
	if off != totalC {
		return fmt.Errorf("concat: %d channels into %d", off, totalC)
	}
	return nil
}

// InferShape implements graph.ShapeOp.
func (SoftmaxOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("softmax: want 1 input, got %d", len(ins))
	}
	if len(ins[0]) != 2 {
		return nil, fmt.Errorf("softmax: want (N,C), got %v", ins[0])
	}
	return ins[0], nil
}

// InferShape implements graph.ShapeOp.
func (XentOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("xent: want (logits, onehot), got %d inputs", len(ins))
	}
	if !sameShape(ins[0], ins[1]) {
		return nil, fmt.Errorf("xent: logits %v vs labels %v", ins[0], ins[1])
	}
	return []int{}, nil
}

// InferShape implements graph.ShapeOp.
func (MSEOp) InferShape(ins [][]int) ([]int, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("mse: want (pred, target), got %d inputs", len(ins))
	}
	if !sameShape(ins[0], ins[1]) {
		return nil, fmt.Errorf("mse: pred %v vs target %v", ins[0], ins[1])
	}
	return []int{}, nil
}

// spans calls f over the flat element ranges of win's pixels in out
// (graph.Window.Spans): the one loop of every elementwise kernel, over
// the whole value or a window.
func spans(out *tensor.Tensor, win graph.Window, f func(lo, hi int)) {
	n, h, w, c := graph.Pixels(out)
	win.Spans(n, h, w, c, f)
}

// sameShape reports whether two shape slices are identical.
func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
