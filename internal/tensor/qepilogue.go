package tensor

import "math"

// The float leg of the int8 backend: kernels whose result is not a
// bias?/ReLU?/clamp? requantization (the residual Add, a standalone
// BiasAdd, a GEMM with a Tanh, Atan, ELU or Scale head) dequantize their
// operands, run the epilogue's stages and quantize the result back into
// int8, a block of elements at a time.

// qBlock is the number of float32 values a QEpilogue works on at a time:
// the length of its stack buffer.
const qBlock = 256

// QEpilogue is a fused epilogue compiled once, when a kernel is built,
// for the int8 boundary: its stages, then quantization into out. Runs of
// bias?/ReLU?/clamp? stages become one canonical pass each (the AVX2
// epilogue kernel) and every other stage its own loop, so a block pays no
// per-element stage dispatch. Its methods are safe for concurrent use.
type QEpilogue struct {
	e     Epilogue
	out   QParams
	steps []qstep
	// c is the channel count of the bias stages, 0 without one: blocks
	// hold whole pixels of c channels or pieces of one pixel.
	c int
	// fused is set when the stages are a bias-free ReLU? → clamp? with
	// lo <= hi (lo and hi then hold the limits, ±Inf without a clamp):
	// a two-operand Add then runs in one pass on qaddAVX2.
	fused  bool
	relu   bool
	lo, hi float32
}

// qstep is one pass of a compiled QEpilogue over a block: a canonical
// run (st == nil) or a single Map or Scale stage.
type qstep struct {
	cn canon
	st *Stage
}

// canonRank orders the canonical stage kinds (bias, ReLU, clamp); other
// kinds have none.
func canonRank(k StageKind) (int, bool) {
	switch k {
	case StageBias:
		return 0, true
	case StageRelu:
		return 1, true
	case StageClamp:
		return 2, true
	}
	return 0, false
}

// NewQEpilogue compiles stages, followed by quantization into out. Every
// bias stage's C must be the last dimension of the values it runs on.
func NewQEpilogue(stages []Stage, out QParams) *QEpilogue {
	q := &QEpilogue{e: Epilogue(stages), out: out}
	var cur canon
	next := 0 // the lowest canonical rank cur still admits
	open := false
	flush := func() {
		if open {
			q.steps = append(q.steps, qstep{cn: cur})
			cur, next, open = canon{}, 0, false
		}
	}
	for i := range q.e {
		st := &q.e[i]
		r, ok := canonRank(st.Kind)
		if !ok {
			flush()
			q.steps = append(q.steps, qstep{st: st})
			continue
		}
		if r < next {
			flush()
		}
		switch st.Kind {
		case StageBias:
			cur.vec, cur.c = st.Vec, st.C
			q.c = st.C
		case StageRelu:
			cur.relu = true
		case StageClamp:
			cur.clamp, cur.lo, cur.hi = true, st.Lo, st.Hi
		}
		next, open = r+1, true
	}
	flush()
	q.lo, q.hi = float32(math.Inf(-1)), float32(math.Inf(1))
	switch {
	case len(q.steps) == 0:
		q.fused = true
	case len(q.steps) == 1 && q.steps[0].st == nil && q.steps[0].cn.vec == nil:
		cn := q.steps[0].cn
		if cn.clamp {
			q.lo, q.hi = cn.lo, cn.hi
		}
		q.relu, q.fused = cn.relu, q.lo <= q.hi
	}
	return q
}

// Add writes out.Quantize(stages(pa.Dequantize(a[i]) +
// pb.Dequantize(b[i]))) into dst[i] for every i < len(dst); a nil b
// drops the second operand (a standalone BiasAdd compiles its bias as
// the first stage). The slices start at a channel boundary, and a and b
// hold at least len(dst) elements. On amd64 with AVX2 it matches the
// per-element loop bit for bit: two operands under a bias-free ReLU? →
// clamp? (the residual Add's epilogue) run on qaddAVX2, one operand
// block by block on dequantAVX2, the compiled stages and quantizeAVX2.
// Two operands under any other epilogue, which no zoo model has, stay
// on the loop.
func (q *QEpilogue) Add(dst, a, b []int8, pa, pb QParams) {
	a = a[:len(dst)]
	if b != nil {
		b = b[:len(dst)]
	}
	switch {
	case !useAVX2 || len(dst) < 8 || b != nil && !q.fused:
		q.addGo(dst, a, b, pa, pb)
	case b != nil:
		n := len(dst) &^ 7
		qaddAVX2(&dst[0], &a[0], &b[0], n, pa.Scale, pa.Zero, pb.Scale, pb.Zero, q.lo, q.hi, q.relu, q.out.Scale, float32(q.out.Zero))
		q.addGo(dst[n:], a[n:], b[n:], pa, pb)
	default:
		var buf [qBlock]float32
		it := blockIter{n: len(dst), c: q.c}
		for lo, hi, ch, ok := it.next(); ok; lo, hi, ch, ok = it.next() {
			v := buf[:hi-lo]
			if len(v) >= 8 {
				dequantAVX2(&v[0], &a[lo], len(v), pa.Scale, pa.Zero)
			} else {
				for i, x := range a[lo:hi] {
					v[i] = pa.Dequantize(x)
				}
			}
			q.finish(dst[lo:hi], v, ch)
		}
	}
}

// addGo is Add's portable loop and the oracle of its AVX2 path.
func (q *QEpilogue) addGo(dst, a, b []int8, pa, pb QParams) {
	for i, x := range a {
		v := pa.Dequantize(x)
		if b != nil {
			v += pb.Dequantize(b[i])
		}
		dst[i] = q.out.Quantize(q.e.ApplyAt(v, i))
	}
}

// Requant writes out.Quantize(stages(float32(acc[i])*m)) into out[i] for
// every i < len(acc): the requantization of a block of int32 GEMM
// accumulators (one output row, or a conv pixel pair's two) whose
// epilogue is not canonical. A bias stage indexes it by column, so its C
// must be the row length. out holds at least len(acc) elements. On amd64
// with AVX2 it runs block by block on scaleAccAVX2, the compiled stages
// and quantizeAVX2, the per-element loop bit for bit.
func (q *QEpilogue) Requant(acc []int32, out []int8, m float32) {
	out = out[:len(acc)]
	if !useAVX2 || len(acc) < 8 {
		q.requantGo(acc, out, m)
		return
	}
	var buf [qBlock]float32
	it := blockIter{n: len(acc), c: q.c}
	for lo, hi, ch, ok := it.next(); ok; lo, hi, ch, ok = it.next() {
		v := buf[:hi-lo]
		if len(v) >= 8 {
			scaleAccAVX2(&v[0], &acc[lo], len(v), m)
		} else {
			for i, a := range acc[lo:hi] {
				v[i] = float32(a) * m
			}
		}
		q.finish(out[lo:hi], v, ch)
	}
}

// requantGo is Requant's portable loop and the oracle of its AVX2 path.
func (q *QEpilogue) requantGo(acc []int32, out []int8, m float32) {
	c := max(q.c, 1)
	for i, a := range acc {
		out[i] = q.out.Quantize(q.e.ApplyAt(float32(a)*m, i%c))
	}
}

// finish runs the compiled stages over the block v, whose first element
// is channel ch, and quantizes it into dst.
func (q *QEpilogue) finish(dst []int8, v []float32, ch int) {
	for si := range q.steps {
		s := &q.steps[si]
		switch {
		case s.st == nil:
			cn := s.cn
			if cn.vec != nil && (ch != 0 || len(v)%cn.c != 0) {
				// A piece of one pixel: its own slice of the bias.
				cn.vec = cn.vec[ch : ch+len(v)]
				cn.c = len(v)
			}
			cn.apply(v)
		case s.st.Kind == StageMap:
			f := s.st.F
			for i, x := range v {
				v[i] = f(x)
			}
		case s.st.Kind == StageScale:
			a := s.st.A
			for i := range v {
				v[i] *= a
			}
		}
	}
	if len(v) >= 8 {
		quantizeAVX2(&dst[0], &v[0], len(v), q.out.Scale, float32(q.out.Zero))
		return
	}
	for i, x := range v {
		dst[i] = q.out.Quantize(x)
	}
}

// blockIter splits a span of n elements that starts at a channel
// boundary into blocks of at most qBlock elements: whole pixels of c
// channels while they fit, else pieces of one pixel. Without a bias
// (c = 0) any split will do.
type blockIter struct{ n, c, lo int }

// next returns the next block [lo, hi) and the channel ch of lo.
func (it *blockIter) next() (lo, hi, ch int, ok bool) {
	lo = it.lo
	if lo >= it.n {
		return 0, 0, 0, false
	}
	c := max(it.c, 1)
	ch = lo % c
	if ch == 0 && c <= qBlock && it.n-lo >= c {
		hi = lo + min(qBlock/c, (it.n-lo)/c)*c
	} else {
		hi = min(lo+min(qBlock, c-ch), it.n)
	}
	it.lo = hi
	return lo, hi, ch, true
}
