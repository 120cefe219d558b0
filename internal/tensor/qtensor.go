package tensor

import (
	"fmt"
	"math"
)

// Int8 quantized tensors. A QTensor stores int8 values with per-tensor
// affine quantization parameters: real = Scale * (q - Zero). This is the
// deployed numeric format of post-training-quantized inference — the
// quantized execution plan (graph.Quantize) runs entirely on QTensors,
// and the int8 fault scenarios flip bits in this representation.

// QParams are per-tensor affine int8 quantization parameters mapping a
// stored value q to the real value Scale*(q-Zero). Zero is always a
// representable int8 so that real 0.0 quantizes exactly (padding and
// ReLU floors stay exact).
type QParams struct {
	Scale float32
	Zero  int32
}

// QParamsFor derives parameters covering the real interval [lo, hi],
// widened to include 0 so the zero point is exact. A degenerate interval
// yields Scale 1 (every value maps to the zero point).
func QParamsFor(lo, hi float64) QParams {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return QParams{Scale: 1, Zero: 0}
	}
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	span := hi - lo
	if span <= 0 || math.IsInf(span, 0) {
		return QParams{Scale: 1, Zero: 0}
	}
	scale := span / 255
	zero := RoundI32(float32(-128 - lo/scale))
	if zero < -128 {
		zero = -128
	} else if zero > 127 {
		zero = 127
	}
	return QParams{Scale: float32(scale), Zero: zero}
}

// QParamsSymmetric derives symmetric (zero-point-0) parameters covering
// [-maxAbs, maxAbs]; the convention for weight tensors, which keeps the
// int8 GEMM's zero-point correction to a single per-column term.
func QParamsSymmetric(maxAbs float64) QParams {
	if maxAbs <= 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return QParams{Scale: 1, Zero: 0}
	}
	return QParams{Scale: float32(maxAbs / 127), Zero: 0}
}

// RoundI32 rounds to the nearest int32, ties away from zero. It is the
// single rounding rule of the quantized backend, so every path
// (quantize, LUT building, requantization) is bit-consistent.
func RoundI32(v float32) int32 {
	if v >= 0 {
		return int32(v + 0.5)
	}
	return int32(v - 0.5)
}

// Quantize maps a real value into the int8 domain, saturating at the
// representable range. NaN maps to the lower saturation bound.
func (p QParams) Quantize(v float32) int8 {
	q := v/p.Scale + float32(p.Zero)
	if !(q > -128) { // NaN or below range
		return -128
	}
	if q > 127 {
		return 127
	}
	return int8(RoundI32(q))
}

// Dequantize maps a stored int8 value back to its real value.
func (p QParams) Dequantize(q int8) float32 {
	return p.Scale * float32(int32(q)-p.Zero)
}

// QTensor is a dense int8 tensor in row-major order with per-tensor
// affine quantization parameters. The zero value is not usable;
// construct with NewQ or QFromSlice.
type QTensor struct {
	shape []int
	data  []int8
	// P holds the tensor's quantization parameters.
	P QParams
}

// NewQ returns a zero-filled quantized tensor with the given parameters
// and shape.
func NewQ(p QParams, shape ...int) *QTensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &QTensor{shape: s, data: make([]int8, n), P: p}
}

// QFromSlice wraps data in a quantized tensor of the given shape. The
// slice is used directly (not copied).
func QFromSlice(data []int8, p QParams, shape ...int) (*QTensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d elements for shape %v (%d)", ErrShape, len(data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &QTensor{shape: s, data: data, P: p}, nil
}

// Shape returns a copy of the tensor's shape.
func (t *QTensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Rank returns the number of dimensions.
func (t *QTensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *QTensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *QTensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; this
// is the access path for kernels and the int8 fault injector.
func (t *QTensor) Data() []int8 { return t.data }

// Clone returns a deep copy.
func (t *QTensor) Clone() *QTensor {
	d := make([]int8, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &QTensor{shape: s, data: d, P: t.P}
}

// QuantizeInto quantizes the float tensor x into dst (same element
// count, dst's parameters) and returns dst.
func QuantizeInto(dst *QTensor, x *Tensor) (*QTensor, error) {
	if len(dst.data) != len(x.data) {
		return nil, fmt.Errorf("%w: quantize %v into %v", ErrShape, x.shape, dst.shape)
	}
	p := dst.P
	for i, v := range x.data {
		dst.data[i] = p.Quantize(v)
	}
	return dst, nil
}

// Quantize returns x quantized under the given parameters, with x's
// shape.
func Quantize(x *Tensor, p QParams) *QTensor {
	out := NewQ(p, x.shape...)
	out, _ = QuantizeInto(out, x) // sizes match by construction
	return out
}

// DequantizeInto writes the real values of t into dst (same element
// count) and returns dst.
func (t *QTensor) DequantizeInto(dst *Tensor) (*Tensor, error) {
	if len(dst.data) != len(t.data) {
		return nil, fmt.Errorf("%w: dequantize %v into %v", ErrShape, t.shape, dst.shape)
	}
	p := t.P
	for i, q := range t.data {
		dst.data[i] = p.Dequantize(q)
	}
	return dst, nil
}

// Dequantize returns the real-valued tensor of t.
func (t *QTensor) Dequantize() *Tensor {
	out := New(t.shape...)
	out, _ = t.DequantizeInto(out)
	return out
}

// QLut builds the 256-entry int8→int8 table applying the real-domain
// transform f between the input and output quantization domains
// (f == nil is the identity). Because an int8 tensor has only 256
// distinct values, any scalar elementwise operator — activation, clip,
// scale, requantization — compiles to one table lookup per element.
func QLut(in, out QParams, f func(float32) float32) *[256]int8 {
	var lut [256]int8
	for i := range lut {
		v := in.Dequantize(int8(i - 128))
		if f != nil {
			v = f(v)
		}
		lut[i] = out.Quantize(v)
	}
	return &lut
}

// LutIndex returns the table index of a stored int8 value.
func LutIndex(q int8) int { return int(q) + 128 }

// QScratch recycles the int8 and int32 temporary buffers of quantized
// kernels (GEMM accumulators and packed weight panels) across runs.
type QScratch struct {
	i8  [][]int8
	i32 [][]int32
	n8  int
	n32 int
}

// Reset makes all buffers reusable; previously returned slices are
// invalidated.
func (s *QScratch) Reset() { s.n8, s.n32 = 0, 0 }

// Int8 returns a recycled int8 buffer of length n (contents arbitrary).
// A nil scratch allocates a fresh buffer.
func (s *QScratch) Int8(n int) []int8 {
	if s == nil {
		return make([]int8, n)
	}
	if s.n8 == len(s.i8) {
		s.i8 = append(s.i8, make([]int8, n))
	}
	b := s.i8[s.n8]
	if cap(b) < n {
		b = make([]int8, n)
		s.i8[s.n8] = b
	}
	s.n8++
	return b[:n]
}

// Int32 returns a recycled int32 buffer of length n (contents arbitrary).
// A nil scratch allocates a fresh buffer.
func (s *QScratch) Int32(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if s.n32 == len(s.i32) {
		s.i32 = append(s.i32, make([]int32, n))
	}
	b := s.i32[s.n32]
	if cap(b) < n {
		b = make([]int32, n)
		s.i32[s.n32] = b
	}
	s.n32++
	return b[:n]
}
