package tensor

import "math"

// Fused epilogues. A compiled execution plan collapses chains of
// elementwise operators (BiasAdd, activations, RangerClip, Scale) into
// the evaluation of their producer: the producer's kernel writes its
// output buffer once, and the chain is then applied as a single in-place
// pass over that buffer — the clamp runs in the same loop as the
// activation instead of costing a full extra read-modify-write pass per
// operator. Each stage reproduces the corresponding operator's scalar
// arithmetic exactly, so fused and unfused execution are bit-identical.

// StageKind enumerates the elementwise transforms a fused epilogue can
// apply.
type StageKind uint8

// Stage kinds.
const (
	// StageBias adds a vector broadcast over the last dimension:
	// v += Vec[i%C] (the BiasAdd loop), for i counted from a channel
	// boundary.
	StageBias StageKind = iota + 1
	// StageRelu applies max(v, 0). ReLU is special-cased so the hottest
	// activation needs no per-element indirect call.
	StageRelu
	// StageMap applies an arbitrary scalar function F (Tanh, Sigmoid,
	// Elu, Atan).
	StageMap
	// StageClamp truncates into [Lo, Hi] (the RangerClip default policy).
	StageClamp
	// StageScale multiplies by A.
	StageScale
)

// Stage is one elementwise transform of a fused epilogue. Which fields
// are meaningful depends on Kind; the zero value is invalid.
type Stage struct {
	Kind StageKind
	// Vec and C configure StageBias: v += Vec[i%C]. C must equal
	// len(Vec) and the output's last dimension. Apply counts i from the
	// start of the slice it is given, so that slice must start at a
	// channel boundary; ApplyAt takes i explicitly.
	Vec []float32
	C   int
	// F configures StageMap.
	F func(float32) float32
	// Lo and Hi configure StageClamp.
	Lo, Hi float32
	// A configures StageScale.
	A float32
}

// Epilogue is an ordered sequence of stages applied in one pass.
type Epilogue []Stage

// canon is the specialized form of the dominant epilogue shape
// (bias? → relu? → clamp?), covering MatMul/Conv + BiasAdd + ReLU +
// RangerClip chains without per-element stage dispatch.
type canon struct {
	vec    []float32
	c      int
	relu   bool
	clamp  bool
	lo, hi float32
}

// canonical reports whether the epilogue is a subsequence of
// [bias, relu, clamp] and returns its specialized form.
func (e Epilogue) canonical() (canon, bool) {
	var cn canon
	next := 0 // 0: bias allowed, 1: relu allowed, 2: clamp allowed, 3: done
	for _, st := range e {
		switch st.Kind {
		case StageBias:
			if next > 0 {
				return cn, false
			}
			cn.vec, cn.c = st.Vec, st.C
			next = 1
		case StageRelu:
			if next > 1 {
				return cn, false
			}
			cn.relu = true
			next = 2
		case StageClamp:
			if next > 2 {
				return cn, false
			}
			cn.clamp, cn.lo, cn.hi = true, st.Lo, st.Hi
			next = 3
		default:
			return cn, false
		}
	}
	return cn, true
}

// Apply runs every stage over data in place, reading and writing each
// element exactly once regardless of the number of stages. data must
// start at a channel boundary (a whole value, or a pixel-aligned span of
// one, as graph.Window.Spans yields): bias stages index their vector
// with a channel counter that starts at 0, not with a division.
func (e Epilogue) Apply(data []float32) {
	if len(e) == 0 {
		return
	}
	if cn, ok := e.canonical(); ok {
		cn.apply(data)
		return
	}
	// Inline stage loop (not a per-element ApplyAt call): this is the
	// fp32 fused epilogue's hot path and must not pay a non-inlinable
	// function call per element. Every bias stage's C is the last
	// dimension, so one wrapping channel counter indexes them all.
	c := 0
	for _, st := range e {
		if st.Kind == StageBias {
			c = st.C
		}
	}
	ch := 0
	for i, v := range data {
		for si := range e {
			st := &e[si]
			switch st.Kind {
			case StageBias:
				v += st.Vec[ch]
			case StageRelu:
				// !(v > 0), not v < 0: NaN and -0.0 must map to +0
				// exactly like the unfused ReLU kernel.
				if !(v > 0) {
					v = 0
				}
			case StageMap:
				v = st.F(v)
			case StageClamp:
				if v < st.Lo {
					v = st.Lo
				} else if v > st.Hi {
					v = st.Hi
				}
			case StageScale:
				v *= st.A
			}
		}
		data[i] = v
		if ch++; ch == c {
			ch = 0
		}
	}
}

// ApplyAt applies every stage to one value at flat index i — the scalar
// form of Apply (same stage semantics, element by element), used by
// quantized kernels that fold the epilogue into their requantization
// pass.
func (e Epilogue) ApplyAt(v float32, i int) float32 {
	for si := range e {
		st := &e[si]
		switch st.Kind {
		case StageBias:
			v += st.Vec[i%st.C]
		case StageRelu:
			// !(v > 0), not v < 0: NaN and -0.0 must map to +0
			// exactly like the unfused ReLU kernel.
			if !(v > 0) {
				v = 0
			}
		case StageMap:
			v = st.F(v)
		case StageClamp:
			if v < st.Lo {
				v = st.Lo
			} else if v > st.Hi {
				v = st.Hi
			}
		case StageScale:
			v *= st.A
		}
	}
	return v
}

// AddBias writes x + broadcast(b) into dst (as long as x): element i
// adds b[i%len(b)], counted from the start of x, so x must start at a
// channel boundary. dst may be x.
func AddBias(dst, x, b []float32) {
	canon{vec: b, c: len(b)}.applyTo(dst, x)
}

// Relu writes max(v, 0) of every element of x into dst (as long as x),
// with NaN and -0 mapping to +0 like the unfused ReLU kernel. dst may be
// x.
func Relu(dst, x []float32) {
	canon{relu: true}.applyTo(dst, x)
}

// Clamp writes every element of x truncated into [lo, hi] into dst (as
// long as x): lo if v < lo, else hi if v > hi, else v (the RangerClip
// default policy). dst may be x.
func Clamp(dst, x []float32, lo, hi float32) {
	canon{clamp: true, lo: lo, hi: hi}.applyTo(dst, x)
}

func (cn canon) apply(data []float32) { cn.applyTo(data, data) }

// applyTo writes the epilogue of src into dst[:len(src)]; dst either is
// src or does not overlap it. On amd64 with AVX2 it runs epilogueAVX2,
// which matches the loop below bit for bit. Clamp bounds that fail
// lo <= hi (inverted or NaN: the vector clamp equals the loop's only
// when lo <= hi) and a bias span that is not a whole number of pixels
// take the loop.
func (cn canon) applyTo(dst, src []float32) {
	dst = dst[:len(src)]
	if useAVX2 && len(src) > 0 && (!cn.clamp || cn.lo <= cn.hi) &&
		(cn.vec == nil || cn.c > 0 && cn.c == len(cn.vec) && len(src)%cn.c == 0) {
		lo, hi := float32(math.Inf(-1)), float32(math.Inf(1))
		if cn.clamp {
			lo, hi = cn.lo, cn.hi
		}
		var vec *float32
		if cn.vec != nil {
			vec = &cn.vec[0]
		}
		epilogueAVX2(&dst[0], &src[0], vec, len(src), cn.c, lo, hi, cn.relu)
		return
	}
	vec, c, ch := cn.vec, cn.c, 0
	for i, v := range src {
		if vec != nil {
			v += vec[ch]
			if ch++; ch == c {
				ch = 0
			}
		}
		if cn.relu && !(v > 0) {
			v = 0
		}
		if cn.clamp {
			if v < cn.lo {
				v = cn.lo
			} else if v > cn.hi {
				v = cn.hi
			}
		}
		dst[i] = v
	}
}
