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
//
// It adds ±0.5 with the sign of v, taken from v's sign bit rather than
// from a comparison: the two-branch form mispredicts whenever the
// values it rounds straddle 0, as a feed on [0,1] with zero point -128
// does. The result equals the branches' (v+0.5 when v >= 0, else
// v-0.5) for every v, including ±0, exact .5 ties, NaN and ±Inf. The
// two sums are the same float except at -0, where -0.5 and 0.5 both
// truncate to 0.
func RoundI32(v float32) int32 {
	half := math.Float32frombits(0x3f000000 | math.Float32bits(v)&0x80000000)
	return int32(v + half)
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
// count, dst's parameters) and returns dst. On amd64 with AVX2, tensors
// of eight or more elements run on quantizeAVX2, QParams.Quantize bit
// for bit.
func QuantizeInto(dst *QTensor, x *Tensor) (*QTensor, error) {
	if len(dst.data) != len(x.data) {
		return nil, fmt.Errorf("%w: quantize %v into %v", ErrShape, x.shape, dst.shape)
	}
	p := dst.P
	if useAVX2 && len(x.data) >= 8 {
		quantizeAVX2(&dst.data[0], &x.data[0], len(x.data), p.Scale, float32(p.Zero))
		return dst, nil
	}
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

// Lut is a QLut table classified once, when a kernel is built: an
// identity table (a remap between equal domains, or a clamp the
// encoding's saturation already applies) maps by copying, and in place
// not at all.
type Lut struct {
	t        *[256]int8
	identity bool
}

// NewLut builds and classifies the table QLut(in, out, f).
func NewLut(in, out QParams, f func(float32) float32) Lut {
	t := QLut(in, out, f)
	for i, q := range t {
		if int(q) != i-128 {
			return Lut{t: t}
		}
	}
	return Lut{t: t, identity: true}
}

// Identity reports whether the table maps every value to itself.
func (l Lut) Identity() bool { return l.identity }

// Map writes the table entry of src[i] into dst[i] for every
// i < len(dst). src holds at least len(dst) elements and either is dst
// or does not overlap it.
func (l Lut) Map(dst, src []int8) {
	src = src[:len(dst)]
	if l.identity {
		if len(dst) > 0 && &dst[0] != &src[0] {
			copy(dst, src)
		}
		return
	}
	for i, q := range src {
		dst[i] = l.t[LutIndex(q)]
	}
}

// QScratch recycles the int32 and int64 temporary buffers of quantized
// kernels (GEMM and convolution accumulators) across runs.
type QScratch struct {
	i32 [][]int32
	i64 [][]int64
	n32 int
	n64 int
}

// Reset makes all buffers reusable; previously returned slices are
// invalidated.
func (s *QScratch) Reset() { s.n32, s.n64 = 0, 0 }

// Int32 returns a recycled int32 buffer of length n (contents arbitrary).
// A nil scratch allocates a fresh buffer.
func (s *QScratch) Int32(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return recycled(&s.i32, &s.n32, n)
}

// Int64 returns a recycled int64 buffer of length n (contents arbitrary).
// A nil scratch allocates a fresh buffer.
func (s *QScratch) Int64(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	return recycled(&s.i64, &s.n64, n)
}

// recycled hands out the next buffer of bufs (used of them are taken),
// growing the list or the buffer when it is missing or too short.
func recycled[T any](bufs *[][]T, used *int, n int) []T {
	if *used == len(*bufs) {
		*bufs = append(*bufs, make([]T, n))
	}
	b := (*bufs)[*used]
	if cap(b) < n {
		b = make([]T, n)
		(*bufs)[*used] = b
	}
	*used++
	return b[:n]
}
