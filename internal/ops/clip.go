package ops

import (
	"fmt"
	"math"

	"ranger/internal/graph"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// TypeClip is the op type of the range-restriction operator Ranger
// inserts. It is the counterpart of the tf.minimum/tf.maximum pair the
// paper's TensorFlow implementation adds (§IV).
const TypeClip = "RangerClip"

// Policy selects what a Clip does to an out-of-bound value. The paper's
// default restores the value to the violated bound; §VI-C evaluates two
// design alternatives.
type Policy int

// Restriction policies from the paper.
const (
	// PolicyClip truncates out-of-bound values to the restriction bound
	// (Ranger's default; deterministic, preserves accuracy).
	PolicyClip Policy = iota + 1
	// PolicyZero resets out-of-bound values to 0 (Reagen et al. style;
	// shown in §VI-C to destroy accuracy).
	PolicyZero
	// PolicyRandom replaces out-of-bound values with a uniform random
	// value inside the bound (viable but non-deterministic, §VI-C).
	PolicyRandom
)

func (p Policy) String() string {
	switch p {
	case PolicyClip:
		return "clip"
	case PolicyZero:
		return "zero"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ClipOp bounds every element of its input into [Low, High] according to
// the chosen policy. For PolicyRandom each replacement is a pure hash of
// the element's index and faulty bit pattern, so the op is stateless:
// race-free and bit-reproducible under any execution order or worker
// count (stronger than the paper's "non-deterministic" framing needs).
type ClipOp struct {
	Low, High float32
	Policy    Policy
}

var _ graph.GradOp = (*ClipOp)(nil)

// NewClip returns the default (truncating) range-restriction op.
func NewClip(low, high float32) *ClipOp {
	return &ClipOp{Low: low, High: high, Policy: PolicyClip}
}

// Type implements graph.Op.
func (c *ClipOp) Type() string { return TypeClip }

// Eval implements graph.Op.
func (c *ClipOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("clip: want 1 input, got %d", len(in))
	}
	if c.Low > c.High {
		return nil, fmt.Errorf("clip: low %g > high %g", c.Low, c.High)
	}
	out := tensor.New(in[0].Shape()...)
	c.clip(in[0].Data(), out.Data(), 0)
	return out, nil
}

// clip writes the restriction of x into out (as long as x). x holds the
// elements of the value from flat index base on, which PolicyRandom
// hashes.
func (c *ClipOp) clip(xd, od []float32, base int) {
	lo, hi := c.Low, c.High
	od = od[:len(xd)]
	switch c.Policy {
	case PolicyZero:
		for i, v := range xd {
			if v < lo || v > hi {
				od[i] = 0
			} else {
				od[i] = v
			}
		}
	case PolicyRandom:
		span := hi - lo
		for i, v := range xd {
			if v < lo || v > hi {
				h := parallel.Mix64(uint64(math.Float32bits(v)) | uint64(base+i+1)<<32)
				u := float32(h>>11) / float32(1<<53)
				od[i] = lo + u*span
			} else {
				od[i] = v
			}
		}
	default: // PolicyClip
		for i, v := range xd {
			if v < lo {
				od[i] = lo
			} else if v > hi {
				od[i] = hi
			} else {
				od[i] = v
			}
		}
	}
}

// Grad implements graph.GradOp: gradient passes through where the value is
// strictly inside the bound (the clip is inserted post-training, but
// supporting gradients keeps protected graphs trainable).
func (c *ClipOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x := in[0]
	g := tensor.New(x.Shape()...)
	xd, gd, od := x.Data(), gout.Data(), g.Data()
	for i, v := range xd {
		if v >= c.Low && v <= c.High {
			od[i] = gd[i]
		}
	}
	return []*tensor.Tensor{g}, nil
}
