package ops

import (
	"fmt"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Window replay: this file implements graph.WindowOp, which lets cone
// replay recompute only the output pixels a fault can reach. Conv2D and
// the pools map a window through their geometry (graph.ConvWindow);
// Add, Concat and the elementwise ops keep it as it is. The fp32 kernels
// are the EvalInto bodies restricted to the window's pixels: row slices
// of the implicit-GEMM conv, the pooling loops over the window's
// pixels, and, for the elementwise ops, their fused-epilogue stage over
// pixel-aligned row runs (the form the compiled plan already fuses
// them in). Their int8 kernels (quant.go) take the window directly.

// Interface conformance for the window extension.
var (
	_ graph.WindowOp = (*Conv2DOp)(nil)
	_ graph.WindowOp = (*MaxPoolOp)(nil)
	_ graph.WindowOp = (*AvgPoolOp)(nil)
	_ graph.WindowOp = AddOp{}
	_ graph.WindowOp = ConcatOp{}
	_ graph.WindowOp = BiasAddOp{}
	_ graph.WindowOp = (*unary)(nil)
	_ graph.WindowOp = (*ClipOp)(nil)
	_ graph.WindowOp = (*ScaleOp)(nil)
)

// convOutWindow maps a window of the convolved input (input 0) through
// the geometry; any other input (the kernel) reaches every output pixel.
func convOutWindow(g tensor.ConvGeom, i int, in graph.Window, out []int) (graph.Window, bool) {
	if i != 0 || len(out) != 4 {
		return graph.Whole(out), true
	}
	return graph.ConvWindow(g, in, out[1], out[2]), true
}

// OutWindow implements graph.WindowOp.
func (c *Conv2DOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	return convOutWindow(c.Geom, i, in, out)
}

// EvalWindow implements graph.WindowOp: the implicit-GEMM conv over the
// window's pixel rows.
func (c *Conv2DOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 2 {
		return fmt.Errorf("conv2d: want (input, kernel), got %d inputs", len(in))
	}
	return tensor.ConvWindowInto(out, in[0], in[1], c.Geom, win.Y0, win.Y1, win.X0, win.X1)
}

// OutWindow implements graph.WindowOp.
func (p *MaxPoolOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	return convOutWindow(p.Geom, i, in, out)
}

// EvalWindow implements graph.WindowOp.
func (p *MaxPoolOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 1 || in[0].Rank() != 4 || out.Rank() != 4 {
		return fmt.Errorf("maxpool: want one NHWC input")
	}
	p.pool(in[0], out, nil, win)
	return nil
}

// OutWindow implements graph.WindowOp.
func (p *AvgPoolOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	return convOutWindow(p.Geom, i, in, out)
}

// EvalWindow implements graph.WindowOp.
func (p *AvgPoolOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 1 || in[0].Rank() != 4 || out.Rank() != 4 {
		return fmt.Errorf("avgpool: want one NHWC input")
	}
	p.pool(in[0], out, win)
	return nil
}

// OutWindow implements graph.WindowOp: output pixels read only the same
// pixel of each operand.
func (AddOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// EvalWindow implements graph.WindowOp.
func (AddOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 2 || in[0].Size() != out.Size() || in[1].Size() != out.Size() {
		return fmt.Errorf("add: want 2 inputs shaped like the output")
	}
	ad, bd, od := in[0].Data(), in[1].Data(), out.Data()
	n, h, w, c := graph.Pixels(out)
	win.Spans(n, h, w, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] + bd[i]
		}
	})
	return nil
}

// OutWindow implements graph.WindowOp: each output pixel stacks the
// channels of the same pixel of every input.
func (ConcatOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// EvalWindow implements graph.WindowOp: the channel stripes of the
// window's pixels only. A non-NHWC output is one pixel, so its window
// is the whole value.
func (op ConcatOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, tmp *graph.Scratch) error {
	if out.Rank() != 4 {
		return op.EvalInto(in, out, tmp)
	}
	totalC := out.Dim(3)
	h, w := out.Dim(1), out.Dim(2)
	od := out.Data()
	off := 0
	for _, t := range in {
		if t.Rank() != 4 || t.Dim(0) != out.Dim(0) || t.Dim(1) != h || t.Dim(2) != w {
			return fmt.Errorf("concat: input %v for output %v", t.Shape(), out.Shape())
		}
		c := t.Dim(3)
		td := t.Data()
		win.Spans(out.Dim(0), h, w, 1, func(lo, hi int) {
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

// stageWindow writes stage(x) into the pixels in win of out: the op's
// fused-epilogue stage over pixel-aligned row runs, bit-identical to its
// EvalInto (graph.Compile fuses the same stages).
func stageWindow(st tensor.Stage, x, out *tensor.Tensor, win graph.Window) error {
	if x.Size() != out.Size() {
		return fmt.Errorf("%d elements into %d", x.Size(), out.Size())
	}
	e := [1]tensor.Stage{st}
	xd, od := x.Data(), out.Data()
	n, h, w, c := graph.Pixels(out)
	win.Spans(n, h, w, c, func(lo, hi int) {
		copy(od[lo:hi], xd[lo:hi])
		tensor.Epilogue(e[:]).Apply(od[lo:hi])
	})
	return nil
}

// OutWindow implements graph.WindowOp: the bias vector reaches every
// pixel, a pixel of the input only itself.
func (BiasAddOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	if i != 0 {
		return graph.Whole(out), true
	}
	return in, true
}

// EvalWindow implements graph.WindowOp.
func (BiasAddOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 2 || in[1].Rank() != 1 || out.Rank() == 0 || in[1].Size() != out.Dim(out.Rank()-1) {
		return fmt.Errorf("biasadd: want (input, bias) matching the output")
	}
	return stageWindow(tensor.Stage{Kind: tensor.StageBias, Vec: in[1].Data(), C: in[1].Size()}, in[0], out, win)
}

// OutWindow implements graph.WindowOp.
func (u *unary) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// EvalWindow implements graph.WindowOp.
func (u *unary) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 1 {
		return fmt.Errorf("%s: want 1 input, got %d", u.typ, len(in))
	}
	st, _ := u.FuseSpec()
	return stageWindow(st, in[0], out, win)
}

// OutWindow implements graph.WindowOp: only the default truncation
// policy has a stage to window; PolicyZero and PolicyRandom (which
// hashes the absolute element index) recompute the whole value.
func (c *ClipOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) {
	_, ok := c.FuseSpec()
	return in, ok
}

// EvalWindow implements graph.WindowOp.
func (c *ClipOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	st, ok := c.FuseSpec()
	if len(in) != 1 || !ok {
		return fmt.Errorf("clip: no windowed kernel for policy %v", c.Policy)
	}
	return stageWindow(st, in[0], out, win)
}

// OutWindow implements graph.WindowOp.
func (s *ScaleOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// EvalWindow implements graph.WindowOp.
func (s *ScaleOp) EvalWindow(in []*tensor.Tensor, out *tensor.Tensor, win graph.Window, _ *graph.Scratch) error {
	if len(in) != 1 {
		return fmt.Errorf("scale: want 1 input, got %d", len(in))
	}
	st, _ := s.FuseSpec()
	return stageWindow(st, in[0], out, win)
}
