package ops

import (
	"fmt"
	"math"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Op type names for pooling. These are among the operator types that
// Algorithm 1 extends an activation's restriction bound to.
const (
	TypeMaxPool = "MaxPool"
	TypeAvgPool = "AvgPool"
)

// MaxPoolOp performs max pooling over NHWC inputs.
type MaxPoolOp struct {
	Geom tensor.ConvGeom
}

var _ graph.GradOp = (*MaxPoolOp)(nil)

// Type implements graph.Op.
func (p *MaxPoolOp) Type() string { return TypeMaxPool }

// Eval implements graph.Op.
func (p *MaxPoolOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("maxpool: want 1 input, got %d", len(in))
	}
	return p.eval(in[0], nil)
}

// eval pools x into a new output. A non-nil arg, one entry per
// output element, receives the flat input index that won each max (used
// by the backward pass).
func (p *MaxPoolOp) eval(x *tensor.Tensor, arg []int) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("maxpool: want NHWC, got %v", x.Shape())
	}
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := p.Geom
	oh, ow := g.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("maxpool: empty output for input %v geom %+v", x.Shape(), g)
	}
	out := tensor.New(n, oh, ow, c)
	if arg != nil && len(arg) != out.Size() {
		return nil, fmt.Errorf("maxpool: %d argmax slots for %d outputs", len(arg), out.Size())
	}
	p.pool(x, out, arg, graph.Window{Y1: oh, X1: ow})
	return out, nil
}

// pool writes the max of every output pixel in win (and, when arg is
// non-nil, its winning input index) and leaves the other pixels alone.
func (p *MaxPoolOp) pool(x, out *tensor.Tensor, arg []int, win graph.Window) {
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := p.Geom
	oh, ow := out.Dim(1), out.Dim(2)
	xd, od := x.Data(), out.Data()
	for b := 0; b < n; b++ {
		for oy := win.Y0; oy < win.Y1; oy++ {
			for ox := win.X0; ox < win.X1; ox++ {
				for ch := 0; ch < c; ch++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
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
							idx := ((b*h+iy)*w+ix)*c + ch
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					oidx := ((b*oh+oy)*ow+ox)*c + ch
					od[oidx] = best
					if arg != nil {
						arg[oidx] = bestIdx
					}
				}
			}
		}
	}
}

// Grad implements graph.GradOp: the gradient routes to the max element of
// each window.
func (p *MaxPoolOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	arg := make([]int, gout.Size())
	if _, err := p.eval(in[0], arg); err != nil {
		return nil, err
	}
	dx := tensor.New(in[0].Shape()...)
	dxd, gd := dx.Data(), gout.Data()
	for i, src := range arg {
		if src >= 0 {
			dxd[src] += gd[i]
		}
	}
	return []*tensor.Tensor{dx}, nil
}

// AvgPoolOp performs average pooling over NHWC inputs; SqueezeNet and
// ResNet use it as their global spatial reduction.
type AvgPoolOp struct {
	Geom tensor.ConvGeom
}

var _ graph.GradOp = (*AvgPoolOp)(nil)

// Type implements graph.Op.
func (p *AvgPoolOp) Type() string { return TypeAvgPool }

// Eval implements graph.Op.
func (p *AvgPoolOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("avgpool: want 1 input, got %d", len(in))
	}
	x := in[0]
	if x.Rank() != 4 {
		return nil, fmt.Errorf("avgpool: want NHWC, got %v", x.Shape())
	}
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := p.Geom
	oh, ow := g.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("avgpool: empty output for input %v geom %+v", x.Shape(), g)
	}
	out := tensor.New(n, oh, ow, c)
	p.pool(x, out, graph.Window{Y1: oh, X1: ow})
	return out, nil
}

// pool writes the mean of every output pixel in win (0 for a window
// lying wholly in padding) and leaves the other pixels alone.
func (p *AvgPoolOp) pool(x, out *tensor.Tensor, win graph.Window) {
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := p.Geom
	oh, ow := out.Dim(1), out.Dim(2)
	xd, od := x.Data(), out.Data()
	for b := 0; b < n; b++ {
		for oy := win.Y0; oy < win.Y1; oy++ {
			for ox := win.X0; ox < win.X1; ox++ {
				for ch := 0; ch < c; ch++ {
					var sum float32
					count := 0
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
							sum += xd[((b*h+iy)*w+ix)*c+ch]
							count++
						}
					}
					var v float32
					if count > 0 {
						v = sum / float32(count)
					}
					od[((b*oh+oy)*ow+ox)*c+ch] = v
				}
			}
		}
	}
}

// Grad implements graph.GradOp: each window distributes its gradient
// equally over the inputs it covered.
func (p *AvgPoolOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x := in[0]
	n, h, w, c := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g := p.Geom
	oh, ow := g.OutDims(h, w)
	dx := tensor.New(x.Shape()...)
	dxd, gd := dx.Data(), gout.Data()
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					// Count valid cells first to divide the gradient.
					count := 0
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.SH - g.PadH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.SW - g.PadW + kx
							if ix >= 0 && ix < w {
								count++
							}
						}
					}
					if count == 0 {
						continue
					}
					share := gd[((b*oh+oy)*ow+ox)*c+ch] / float32(count)
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
							dxd[((b*h+iy)*w+ix)*c+ch] += share
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{dx}, nil
}
