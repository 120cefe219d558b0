package ops

import (
	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Window replay: this file implements graph.WindowOp, which lets cone
// replay recompute only the output pixels a fault can reach. Conv2D and
// the pools map a window through their geometry (graph.ConvWindow);
// Add, Concat and the elementwise ops keep it as it is. The kernels take
// the window directly: EvalInto (planned.go) on fp32 and the QuantKernel
// (quant.go) on int8.

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

// OutWindow implements graph.WindowOp.
func (p *MaxPoolOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	return convOutWindow(p.Geom, i, in, out)
}

// OutWindow implements graph.WindowOp.
func (p *AvgPoolOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	return convOutWindow(p.Geom, i, in, out)
}

// OutWindow implements graph.WindowOp: output pixels read only the same
// pixel of each operand.
func (AddOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// OutWindow implements graph.WindowOp: each output pixel stacks the
// channels of the same pixel of every input.
func (ConcatOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// OutWindow implements graph.WindowOp: the bias vector reaches every
// pixel, a pixel of the input only itself.
func (BiasAddOp) OutWindow(i int, in graph.Window, out []int) (graph.Window, bool) {
	if i != 0 {
		return graph.Whole(out), true
	}
	return in, true
}

// OutWindow implements graph.WindowOp.
func (u *unary) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }

// OutWindow implements graph.WindowOp for the default truncation policy
// only: PolicyZero and PolicyRandom steps recompute the whole value.
func (c *ClipOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) {
	_, ok := c.FuseSpec()
	return in, ok
}

// OutWindow implements graph.WindowOp.
func (s *ScaleOp) OutWindow(_ int, in graph.Window, _ []int) (graph.Window, bool) { return in, true }
