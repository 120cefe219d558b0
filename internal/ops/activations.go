// Package ops implements the operator kernels (forward and backward) used
// by the eight DNN benchmarks of the Ranger paper: convolution, dense
// layers, the monotone activation functions the technique relies on,
// pooling, shape ops, softmax, losses, and the Clip operator that Ranger
// itself inserts (the analog of tf.minimum/tf.maximum in §IV).
package ops

import (
	"fmt"
	"math"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Activation op type names. The Ranger transform identifies activation
// layers by these type strings.
const (
	TypeRelu    = "Relu"
	TypeTanh    = "Tanh"
	TypeSigmoid = "Sigmoid"
	TypeElu     = "Elu"
	TypeAtan    = "Atan"
)

// ActivationTypes lists the op types Ranger treats as ACT layers.
func ActivationTypes() []string {
	return []string{TypeRelu, TypeTanh, TypeSigmoid, TypeElu}
}

// unary is a shared implementation for elementwise activations.
type unary struct {
	typ  string
	f    func(float32) float32
	dfdx func(x, y float32) float32 // derivative given input x and output y
}

var _ graph.GradOp = (*unary)(nil)

// Type implements graph.Op.
func (u *unary) Type() string { return u.typ }

// Eval implements graph.Op.
func (u *unary) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("%s: want 1 input, got %d", u.typ, len(in))
	}
	return in[0].Map(u.f), nil
}

// Grad implements graph.GradOp.
func (u *unary) Grad(in []*tensor.Tensor, out, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x := in[0]
	g := tensor.New(x.Shape()...)
	xd, yd, gd, od := x.Data(), out.Data(), gout.Data(), g.Data()
	for i := range od {
		od[i] = gd[i] * u.dfdx(xd[i], yd[i])
	}
	return []*tensor.Tensor{g}, nil
}

// Relu returns the rectified-linear activation op, the unbounded monotone
// function whose range Ranger must derive by profiling.
func Relu() graph.Op {
	return &unary{
		typ: TypeRelu,
		f: func(x float32) float32 {
			if x > 0 {
				return x
			}
			return 0
		},
		dfdx: func(x, _ float32) float32 {
			if x > 0 {
				return 1
			}
			return 0
		},
	}
}

// Tanh returns the hyperbolic-tangent activation, inherently bounded to
// (-1, 1); Ranger uses the function's own bound instead of profiling.
func Tanh() graph.Op {
	return &unary{
		typ: TypeTanh,
		f:   func(x float32) float32 { return float32(math.Tanh(float64(x))) },
		dfdx: func(_, y float32) float32 {
			return 1 - y*y
		},
	}
}

// Sigmoid returns the logistic activation, inherently bounded to (0, 1).
func Sigmoid() graph.Op {
	return &unary{
		typ: TypeSigmoid,
		f: func(x float32) float32 {
			return float32(1 / (1 + math.Exp(-float64(x))))
		},
		dfdx: func(_, y float32) float32 {
			return y * (1 - y)
		},
	}
}

// Elu returns the exponential-linear activation used by the Comma.ai
// steering model (alpha = 1).
func Elu() graph.Op {
	return &unary{
		typ: TypeElu,
		f: func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return float32(math.Exp(float64(x)) - 1)
		},
		dfdx: func(x, y float32) float32 {
			if x >= 0 {
				return 1
			}
			return y + 1 // d/dx (e^x - 1) = e^x = y+1
		},
	}
}

// Atan returns the arctangent op used by the Dave steering head; the paper
// observes its horizontal asymptote (±π/2) makes the radian-output model
// more SDC-prone.
func Atan() graph.Op {
	return &unary{
		typ: TypeAtan,
		f:   func(x float32) float32 { return float32(math.Atan(float64(x))) },
		dfdx: func(x, _ float32) float32 {
			return float32(1 / (1 + float64(x)*float64(x)))
		},
	}
}

// InherentBound returns the mathematical output range of an activation op
// type if it has one (Tanh, Sigmoid, Atan), per §III-C step 1 of the
// paper; ok is false for unbounded activations such as ReLU and ELU's
// upper side.
func InherentBound(opType string) (lo, hi float64, ok bool) {
	switch opType {
	case TypeTanh:
		return -1, 1, true
	case TypeSigmoid:
		return 0, 1, true
	case TypeAtan:
		return -math.Pi / 2, math.Pi / 2, true
	default:
		return 0, 0, false
	}
}
