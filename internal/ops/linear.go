package ops

import (
	"fmt"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Op type names for the linear-algebra operators.
const (
	TypeConv2D  = "Conv2D"
	TypeDense   = "MatMul"
	TypeBiasAdd = "BiasAdd"
	TypeAdd     = "Add"
	TypeScale   = "Scale"
)

// Conv2DOp convolves an NHWC input (input 0) with an (KH,KW,inC,outC)
// kernel (input 1). Planned runs use the implicit-GEMM tensor.ConvInto;
// Eval, the legacy executor's path, keeps im2col lowering plus MatMul as
// the independent oracle the plan is checked against.
type Conv2DOp struct {
	Geom tensor.ConvGeom
}

var _ graph.GradOp = (*Conv2DOp)(nil)

// Type implements graph.Op.
func (c *Conv2DOp) Type() string { return TypeConv2D }

// Eval implements graph.Op.
func (c *Conv2DOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("conv2d: want (input, kernel), got %d inputs", len(in))
	}
	x, w := in[0], in[1]
	if x.Rank() != 4 || w.Rank() != 4 {
		return nil, fmt.Errorf("conv2d: ranks %d, %d", x.Rank(), w.Rank())
	}
	if w.Dim(0) != c.Geom.KH || w.Dim(1) != c.Geom.KW || w.Dim(2) != x.Dim(3) {
		return nil, fmt.Errorf("conv2d: kernel %v vs input %v geom %+v", w.Shape(), x.Shape(), c.Geom)
	}
	n, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	outC := w.Dim(3)
	oh, ow := c.Geom.OutDims(h, wd)
	cols, err := tensor.Im2Col(x, c.Geom)
	if err != nil {
		return nil, err
	}
	wm, err := w.Reshape(c.Geom.KH*c.Geom.KW*x.Dim(3), outC)
	if err != nil {
		return nil, err
	}
	prod, err := tensor.MatMul(cols, wm)
	if err != nil {
		return nil, err
	}
	return prod.Reshape(n, oh, ow, outC)
}

// Grad implements graph.GradOp.
func (c *Conv2DOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x, w := in[0], in[1]
	outC := w.Dim(3)
	cols, err := tensor.Im2Col(x, c.Geom)
	if err != nil {
		return nil, err
	}
	gm, err := gout.Reshape(-1, outC)
	if err != nil {
		return nil, err
	}
	// dW = colsᵀ · gOut
	dw, err := tensor.MatMulTransA(cols, gm)
	if err != nil {
		return nil, err
	}
	dwT, err := dw.Reshape(w.Shape()...)
	if err != nil {
		return nil, err
	}
	// dX = col2im(gOut · Wᵀ)
	wm, err := w.Reshape(c.Geom.KH*c.Geom.KW*x.Dim(3), outC)
	if err != nil {
		return nil, err
	}
	dcols, err := tensor.MatMulTransB(gm, wm)
	if err != nil {
		return nil, err
	}
	dx, err := tensor.Col2Im(dcols, x.Shape(), c.Geom)
	if err != nil {
		return nil, err
	}
	return []*tensor.Tensor{dx, dwT}, nil
}

// DenseOp multiplies a (N,K) input by a (K,F) weight matrix.
type DenseOp struct{}

var _ graph.GradOp = (*DenseOp)(nil)

// Type implements graph.Op.
func (DenseOp) Type() string { return TypeDense }

// Eval implements graph.Op.
func (DenseOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("matmul: want (input, weights), got %d inputs", len(in))
	}
	return tensor.MatMul(in[0], in[1])
}

// Grad implements graph.GradOp.
func (DenseOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x, w := in[0], in[1]
	dx, err := tensor.MatMulTransB(gout, w)
	if err != nil {
		return nil, err
	}
	dw, err := tensor.MatMulTransA(x, gout)
	if err != nil {
		return nil, err
	}
	return []*tensor.Tensor{dx, dw}, nil
}

// BiasAddOp adds a rank-1 bias of size C to the last dimension of its
// first input (NHWC conv outputs or (N,F) dense outputs).
type BiasAddOp struct{}

var _ graph.GradOp = (*BiasAddOp)(nil)

// Type implements graph.Op.
func (BiasAddOp) Type() string { return TypeBiasAdd }

// Eval implements graph.Op.
func (BiasAddOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("biasadd: want (input, bias), got %d inputs", len(in))
	}
	x, b := in[0], in[1]
	c := x.Dim(x.Rank() - 1)
	if b.Rank() != 1 || b.Dim(0) != c {
		return nil, fmt.Errorf("biasadd: bias %v for input %v", b.Shape(), x.Shape())
	}
	out := tensor.New(x.Shape()...)
	biasAdd(x.Data(), b.Data(), out.Data())
	return out, nil
}

// biasAdd writes x + broadcast(b) into out (as long as x), indexing b
// with a wrapping channel counter rather than i%c, so x must start at a
// channel boundary.
func biasAdd(x, b, out []float32) {
	ch := 0
	for i, v := range x {
		out[i] = v + b[ch]
		if ch++; ch == len(b) {
			ch = 0
		}
	}
}

// Grad implements graph.GradOp.
func (BiasAddOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x, b := in[0], in[1]
	c := x.Dim(x.Rank() - 1)
	db := tensor.New(c)
	gd, dbd := gout.Data(), db.Data()
	for i, v := range gd {
		dbd[i%c] += v
	}
	_ = b
	return []*tensor.Tensor{gout.Clone(), db}, nil
}

// AddOp adds two same-shape tensors (residual connections in ResNet).
type AddOp struct{}

var _ graph.GradOp = (*AddOp)(nil)

// Type implements graph.Op.
func (AddOp) Type() string { return TypeAdd }

// Eval implements graph.Op.
func (AddOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("add: want 2 inputs, got %d", len(in))
	}
	return in[0].Add(in[1])
}

// Grad implements graph.GradOp.
func (AddOp) Grad(_ []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	return []*tensor.Tensor{gout.Clone(), gout.Clone()}, nil
}

// ScaleOp multiplies its input by a compile-time constant; the Dave model
// uses it for its `2 * atan(x)` steering head.
type ScaleOp struct {
	Factor float32
}

var _ graph.GradOp = (*ScaleOp)(nil)

// Type implements graph.Op.
func (s *ScaleOp) Type() string { return TypeScale }

// Eval implements graph.Op.
func (s *ScaleOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("scale: want 1 input, got %d", len(in))
	}
	return in[0].Scale(s.Factor), nil
}

// Grad implements graph.GradOp.
func (s *ScaleOp) Grad(_ []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	return []*tensor.Tensor{gout.Scale(s.Factor)}, nil
}
