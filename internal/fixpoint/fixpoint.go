// Package fixpoint implements the signed fixed-point binary encodings used
// by the Ranger paper's fault model. The paper evaluates DNNs using a
// 32-bit fixed-point datatype (RQ1-RQ3) and a 16-bit datatype with 14
// integer bits and 2 fractional bits (RQ4). A hardware transient fault is
// modeled as one or more bit flips in this encoding of an operator's
// output value.
package fixpoint

import (
	"fmt"
	"math"
)

// Format describes a signed two's-complement fixed-point layout with
// 1 sign bit, IntBits integer bits, and FracBits fractional bits.
type Format struct {
	IntBits  int
	FracBits int
}

// The formats evaluated in the paper.
var (
	// Q32 is the 32-bit datatype used for RQ1-RQ3: 1 sign, 21 integer,
	// 10 fractional bits. Its dynamic range (~±2·10^6 with ~10^-3
	// resolution) covers the activation magnitudes of all eight models.
	Q32 = Format{IntBits: 21, FracBits: 10}
	// Q16 is the reduced-precision datatype of RQ4, quoted in the paper
	// as "14 bits for the integer and 2 for the fractional part".
	Q16 = Format{IntBits: 13, FracBits: 2}
)

// Bits returns the total width, including the sign bit.
func (f Format) Bits() int { return 1 + f.IntBits + f.FracBits }

// MaxValue returns the largest representable value.
func (f Format) MaxValue() float64 {
	maxRaw := int64(1)<<(f.IntBits+f.FracBits) - 1
	return float64(maxRaw) / float64(int64(1)<<f.FracBits)
}

// MinValue returns the most negative representable value, -2^IntBits.
func (f Format) MinValue() float64 {
	return -float64(int64(1) << f.IntBits)
}

// Resolution returns the value of one least-significant bit.
func (f Format) Resolution() float64 {
	return 1 / float64(int64(1)<<f.FracBits)
}

// Encode converts v to the raw two's-complement bit pattern, saturating at
// the representable range (matching how a fixed-point datapath clamps).
func (f Format) Encode(v float32) uint64 {
	scale := float64(int64(1) << f.FracBits)
	maxRaw := int64(1)<<(f.IntBits+f.FracBits) - 1
	minRaw := -int64(1) << (f.IntBits + f.FracBits)
	scaled := math.Round(float64(v) * scale)
	var raw int64
	switch {
	case math.IsNaN(scaled):
		raw = 0
	case scaled >= float64(maxRaw):
		raw = maxRaw
	case scaled <= float64(minRaw):
		raw = minRaw
	default:
		raw = int64(scaled)
	}
	mask := uint64(1)<<f.Bits() - 1
	return uint64(raw) & mask
}

// Decode converts a raw bit pattern back to a float value, interpreting
// the top bit of the format as the sign (two's complement).
func (f Format) Decode(raw uint64) float32 {
	bits := f.Bits()
	mask := uint64(1)<<bits - 1
	raw &= mask
	v := int64(raw)
	if raw&(1<<(bits-1)) != 0 { // sign-extend
		v = int64(raw) - (1 << bits)
	}
	return float32(float64(v) / float64(int64(1)<<f.FracBits))
}

// FlipBit returns v with bit `bit` of its fixed-point encoding flipped.
// Bit 0 is the least-significant fractional bit; bit Bits()-1 is the sign.
// This is the paper's transient-fault primitive: the monotone property of
// DNN operators means high-order-bit flips produce the large deviations
// that become SDCs, while low-order flips are usually benign.
func (f Format) FlipBit(v float32, bit int) (float32, error) {
	if bit < 0 || bit >= f.Bits() {
		return 0, fmt.Errorf("fixpoint: bit %d out of range for %d-bit format", bit, f.Bits())
	}
	raw := f.Encode(v)
	raw ^= 1 << uint(bit)
	return f.Decode(raw), nil
}

// Quantize rounds v to the nearest representable fixed-point value,
// saturating at the range limits. Models evaluated under a fixed-point
// datatype quantize every operator output this way.
func (f Format) Quantize(v float32) float32 {
	return f.Decode(f.Encode(v))
}

func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d(%d-bit)", f.IntBits, f.FracBits, f.Bits())
}
