// Package tensor provides a dense float32 n-dimensional tensor and the
// numeric kernels (matmul, convolution, pooling windows, elementwise maps) that
// the operator layer builds on. It is deliberately small: just enough to
// run and train the convolutional networks evaluated in the Ranger paper.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense float32 tensor in row-major order. The zero value is
// not usable; construct with New, FromSlice, or the Random helpers.
type Tensor struct {
	shape []int
	data  []float32
}

// ErrShape reports a shape mismatch between operands.
var ErrShape = errors.New("tensor: shape mismatch")

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a zero-dimensional tensor holds one scalar.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d elements for shape %v (%d)", ErrShape, len(data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// MustFromSlice is FromSlice but panics on error; for literals in tests.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Scalar returns a 0-d tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{shape: nil, data: []float32{v}}
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; this is
// the intended access path for kernels and the fault injector.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Tensor{shape: s, data: d}
}

// ResolveShape resolves a requested shape against an element count: a
// single -1 dimension is inferred, negative dimensions are rejected,
// and the resolved shape's element count must equal total. It is the
// single definition of reshape semantics, shared by Tensor.Reshape and
// compile-time shape inference.
func ResolveShape(total int, shape []int) ([]int, error) {
	s := make([]int, len(shape))
	copy(s, shape)
	infer := -1
	known := 1
	for i, d := range s {
		switch {
		case d == -1:
			if infer >= 0 {
				return nil, fmt.Errorf("%w: multiple -1 dims in %v", ErrShape, shape)
			}
			infer = i
		case d < 0:
			return nil, fmt.Errorf("%w: negative dim in %v", ErrShape, shape)
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || total%known != 0 {
			return nil, fmt.Errorf("%w: cannot infer dim for %v from %d elements", ErrShape, shape, total)
		}
		s[infer] = total / known
		known *= s[infer]
	}
	if known != total {
		return nil, fmt.Errorf("%w: reshape %d elements to %v", ErrShape, total, shape)
	}
	return s, nil
}

// Reshape returns a view-copy of t with a new shape holding the same
// elements. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	s, err := ResolveShape(len(t.data), shape)
	if err != nil {
		return nil, err
	}
	return &Tensor{shape: s, data: t.data}, nil
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply maps f over every element in place and returns t.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor with f applied to every element.
func (t *Tensor) Map(f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// AddInto computes dst = t + u elementwise. Shapes must match exactly.
func (t *Tensor) AddInto(u, dst *Tensor) error {
	if !t.SameShape(u) || !t.SameShape(dst) {
		return fmt.Errorf("%w: add %v + %v -> %v", ErrShape, t.shape, u.shape, dst.shape)
	}
	for i := range t.data {
		dst.data[i] = t.data[i] + u.data[i]
	}
	return nil
}

// Add returns t + u elementwise.
func (t *Tensor) Add(u *Tensor) (*Tensor, error) {
	out := New(t.shape...)
	if err := t.AddInto(u, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Sub returns t - u elementwise.
func (t *Tensor) Sub(u *Tensor) (*Tensor, error) {
	if !t.SameShape(u) {
		return nil, fmt.Errorf("%w: sub %v - %v", ErrShape, t.shape, u.shape)
	}
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] - u.data[i]
	}
	return out, nil
}

// Mul returns t * u elementwise (Hadamard product).
func (t *Tensor) Mul(u *Tensor) (*Tensor, error) {
	if !t.SameShape(u) {
		return nil, fmt.Errorf("%w: mul %v * %v", ErrShape, t.shape, u.shape)
	}
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] * u.data[i]
	}
	return out, nil
}

// Scale returns t * a for scalar a.
func (t *Tensor) Scale(a float32) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] * a
	}
	return out
}

// AxpyInPlace computes t += a*u in place.
func (t *Tensor) AxpyInPlace(a float32, u *Tensor) error {
	if !t.SameShape(u) {
		return fmt.Errorf("%w: axpy %v += a*%v", ErrShape, t.shape, u.shape)
	}
	for i := range t.data {
		t.data[i] += a * u.data[i]
	}
	return nil
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return float32(s)
}

// Max returns the maximum element; -Inf for an empty tensor.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; +Inf for an empty tensor.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// TopK returns the flat indices of the k largest elements, best first.
func (t *Tensor) TopK(k int) []int {
	if k > len(t.data) {
		k = len(t.data)
	}
	idx := make([]int, 0, k)
	taken := make(map[int]bool, k)
	for range make([]struct{}, k) {
		best, bi := float32(math.Inf(-1)), -1
		for i, v := range t.data {
			if !taken[i] && v > best {
				best, bi = v, i
			}
		}
		taken[bi] = true
		idx = append(idx, bi)
	}
	return idx
}

// Clamp limits every element into [lo, hi] in place and returns t.
func (t *Tensor) Clamp(lo, hi float32) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}

// Randn fills t with N(0, std) samples from rng and returns t.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// RandUniform fills t with U[lo, hi) samples from rng and returns t.
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) *Tensor {
	for i := range t.data {
		t.data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// String renders shape plus a preview of the first few elements.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n < len(t.data) {
		fmt.Fprintf(&b, " ... (%d total)", len(t.data))
	}
	b.WriteString("]")
	return b.String()
}
