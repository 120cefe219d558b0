package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Parity tests for the float leg of the int8 backend: QEpilogue.Add and
// QEpilogue.Requant run on every kernel path and are compared bit for
// bit with the per-element loops they replaced in the Add, BiasAdd and
// general-stage GEMM kernels, with guard bytes around the output. Lut
// is compared with a plain table read.

// addOracle is the residual Add kernel's per-element loop.
func addOracle(a, b []int8, pa, pb, out QParams, e Epilogue) []int8 {
	want := make([]int8, len(a))
	for i := range a {
		v := pa.Dequantize(a[i]) + pb.Dequantize(b[i])
		want[i] = out.Quantize(e.ApplyAt(v, i))
	}
	return want
}

// biasAddOracle is the standalone BiasAdd kernel's per-element loop: the
// bias of channel i%c, then the fused stages.
func biasAddOracle(x []int8, bias []float32, in, out QParams, e Epilogue) []int8 {
	want := make([]int8, len(x))
	for i := range x {
		v := in.Dequantize(x[i]) + bias[i%len(bias)]
		want[i] = out.Quantize(e.ApplyAt(v, i))
	}
	return want
}

// requantGeneralOracle is the general-stage GEMM requantize loop: rows of
// n accumulators, the column indexing the bias.
func requantGeneralOracle(acc []int32, n int, m float32, out QParams, e Epilogue) []int8 {
	want := make([]int8, len(acc))
	for r := 0; r < len(acc); r += n {
		for j, a := range acc[r : r+n] {
			want[r+j] = out.Quantize(e.ApplyAt(float32(a)*m, j))
		}
	}
	return want
}

// guarded returns an n-byte output slice with boundaryGuard sentinel
// bytes on each side, and the whole buffer for checkBoundaryOut.
func guarded(n int) (out, buf []int8) {
	buf = make([]int8, n+2*boundaryGuard)
	for i := range buf {
		buf[i] = boundarySentinel
	}
	return buf[boundaryGuard : boundaryGuard+n], buf
}

// addParamsSpecial are operand and output parameters no calibration
// yields but a quantization-parameter fault can: zero, negative, tiny,
// huge, infinite and NaN scales, and zero points past int8 and at the
// int32 extremes (where q-Zero wraps).
var addParamsSpecial = []QParams{
	{Scale: 0, Zero: 0},
	{Scale: -0.03, Zero: 4},
	{Scale: math.SmallestNonzeroFloat32, Zero: -9},
	{Scale: 3e38, Zero: 1},
	{Scale: float32(math.Inf(1)), Zero: 0},
	{Scale: float32(math.NaN()), Zero: 2},
	{Scale: 0.02, Zero: 300},
	{Scale: 0.02, Zero: math.MaxInt32},
	{Scale: 0.02, Zero: math.MinInt32},
}

// randQParams draws typical parameters (log-uniform scale, int8 zero
// point) and, one time in six, a special set.
func randQParams(rng *rand.Rand) QParams {
	if rng.Intn(6) == 0 {
		return addParamsSpecial[rng.Intn(len(addParamsSpecial))]
	}
	return QParams{Scale: float32(math.Pow(10, -4+5*rng.Float64())), Zero: int32(rng.Intn(256) - 128)}
}

// addEpilogues returns the fused epilogues an Add runs under: none,
// ReLU, a clamp, both, clamps on the Go loop (inverted or NaN bounds)
// and non-canonical heads. Clamp bounds fall inside out's range, where
// they bind.
func addEpilogues(rng *rand.Rand, out QParams) []Epilogue {
	lo := out.Dequantize(int8(rng.Intn(200) - 128))
	hi := lo + float32(rng.Intn(60))*out.Scale
	nan := float32(math.NaN())
	tanh := func(v float32) float32 { return float32(math.Tanh(float64(v))) }
	return []Epilogue{
		nil,
		{{Kind: StageRelu}},
		{{Kind: StageClamp, Lo: lo, Hi: hi}},
		{{Kind: StageRelu}, {Kind: StageClamp, Lo: lo, Hi: hi}},
		{{Kind: StageRelu}, {Kind: StageClamp, Lo: hi + 1, Hi: lo}},
		{{Kind: StageClamp, Lo: nan, Hi: hi}},
		{{Kind: StageMap, F: tanh}, {Kind: StageScale, A: 1.5}, {Kind: StageRelu}},
		{{Kind: StageClamp, Lo: lo, Hi: hi}, {Kind: StageRelu}},
	}
}

// TestQAddSIMDMatchesGo runs QEpilogue.Add on all 256×256 operand code
// pairs under random and special parameters, with ReLU and clamp on and
// off, against the Add kernel's per-element loop.
func TestQAddSIMDMatchesGo(t *testing.T) {
	const n = 256 * 256
	a, b := make([]int8, n), make([]int8, n)
	for i := range a {
		a[i], b[i] = int8(i>>8-128), int8(i&255-128)
	}
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		for trial := 0; trial < 12; trial++ {
			pa, pb, out := randQParams(rng), randQParams(rng), randQParams(rng)
			if trial == 0 {
				pa, pb, out = QParams{Scale: 0.05, Zero: -7}, QParams{Scale: 0.03, Zero: 11}, QParams{Scale: 0.06, Zero: -128}
			}
			for ei, e := range addEpilogues(rng, out) {
				want := addOracle(a, b, pa, pb, out, e)
				got, buf := guarded(n)
				NewQEpilogue(e, out).Add(got, a, b, pa, pb)
				label := fmt.Sprintf("trial %d epilogue %d pa %+v pb %+v out %+v", trial, ei, pa, pb, out)
				checkBoundaryOut(t, label, buf, want, func(i int) string {
					return fmt.Sprintf("a %d b %d", a[i], b[i])
				})
			}
		}
	})
}

// TestQAddTailsMatchGo runs QEpilogue.Add on spans of 1 to 40 elements
// (the Go loop below 8 and every tail the 8-lane kernels leave) and across the
// block size, with random operands, and the BiasAdd form (no second
// operand, the bias as first stage) on channel counts that fit a block
// several times, once, or not at all.
func TestQAddTailsMatchGo(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(52))
		lens := []int{qBlock - 1, qBlock, qBlock + 1, 3*qBlock + 5}
		for n := 1; n <= 40; n++ {
			lens = append(lens, n)
		}
		for _, n := range lens {
			a, b := make([]int8, n), make([]int8, n)
			for i := range a {
				a[i], b[i] = int8(rng.Intn(256)-128), int8(rng.Intn(256)-128)
			}
			pa, pb, out := randQParams(rng), randQParams(rng), randQParams(rng)
			for ei, e := range addEpilogues(rng, out) {
				got, buf := guarded(n)
				NewQEpilogue(e, out).Add(got, a, b, pa, pb)
				checkBoundaryOut(t, fmt.Sprintf("add n=%d epilogue %d", n, ei), buf, addOracle(a, b, pa, pb, out, e), func(i int) string {
					return fmt.Sprintf("a %d b %d", a[i], b[i])
				})
			}
		}
		for _, c := range []int{1, 3, 8, 19, 64, qBlock, qBlock + 44, 700} {
			bias := make([]float32, c)
			for i := range bias {
				bias[i] = epilogueValue(rng)
			}
			for _, n := range []int{c, 2 * c, 5 * c, 3*c + 2} {
				x := make([]int8, n)
				for i := range x {
					x[i] = int8(rng.Intn(256) - 128)
				}
				in, out := randQParams(rng), randQParams(rng)
				for ei, e := range addEpilogues(rng, out) {
					stages := append(Epilogue{{Kind: StageBias, Vec: bias, C: c}}, e...)
					got, buf := guarded(n)
					NewQEpilogue(stages, out).Add(got, x, nil, in, QParams{})
					label := fmt.Sprintf("biasadd c=%d n=%d epilogue %d", c, n, ei)
					checkBoundaryOut(t, label, buf, biasAddOracle(x, bias, in, out, e), func(i int) string {
						return fmt.Sprintf("x %d", x[i])
					})
				}
			}
		}
	})
}

// head is a named GEMM epilogue.
type head struct {
	name string
	e    Epilogue
}

// generalHeads returns non-canonical GEMM epilogues over n columns: the
// ELU conv (comma), a bias→Tanh→Scale head and an Atan one (dave), a
// lone Scale, and canonical stages around a map.
func generalHeads(rng *rand.Rand, n int) []head {
	bias := make([]float32, n)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	elu := func(v float32) float32 {
		if v > 0 {
			return v
		}
		return float32(math.Exp(float64(v)) - 1)
	}
	tanh := func(v float32) float32 { return float32(math.Tanh(float64(v))) }
	atan := func(v float32) float32 { return float32(math.Atan(float64(v))) }
	b := Stage{Kind: StageBias, Vec: bias, C: n}
	return []head{
		{"elu", Epilogue{b, {Kind: StageMap, F: elu}}},
		{"elu-clamp", Epilogue{b, {Kind: StageMap, F: elu}, {Kind: StageClamp, Lo: -0.5, Hi: 2}}},
		{"tanh-scale", Epilogue{b, {Kind: StageMap, F: tanh}, {Kind: StageScale, A: 2}}},
		{"atan-scale", Epilogue{b, {Kind: StageMap, F: atan}, {Kind: StageScale, A: 2}}},
		{"scale", Epilogue{{Kind: StageScale, A: -0.75}}},
		{"relu-map", Epilogue{b, {Kind: StageRelu}, {Kind: StageMap, F: tanh}, {Kind: StageRelu}}},
	}
}

// requantGeneralScales are the accumulator units m of the general-stage
// tests: typical GEMM units, 0 and -0, ±Inf, NaN and a huge one.
var requantGeneralScales = []float32{
	3.7e-4, 2.2e-5, 1e-3, 0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e10,
}

// checkRequantGeneral runs QEpilogue.Requant on a block of rows×n
// accumulators and compares it with the per-element loop.
func checkRequantGeneral(t *testing.T, rng *rand.Rand, name string, e Epilogue, n, rows int, m float32, out QParams) {
	t.Helper()
	acc := make([]int32, rows*n)
	for i := range acc {
		acc[i] = requantAcc(rng, m/out.Scale)
	}
	got, buf := guarded(len(acc))
	NewQEpilogue(e, out).Requant(acc, got, m)
	label := fmt.Sprintf("%s n=%d rows=%d m=%g out %+v", name, n, rows, m, out)
	checkBoundaryOut(t, label, buf, requantGeneralOracle(acc, n, m, out, e), func(i int) string {
		return fmt.Sprintf("acc %d", acc[i])
	})
}

// TestQRequantGeneralSIMDMatchesGo runs QEpilogue.Requant on one row
// and on a pixel pair's two, for rows of 1 to 40 columns and across the
// block size, under every head of generalHeads and every unit of
// requantGeneralScales, against the general-stage loop.
func TestQRequantGeneralSIMDMatchesGo(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		cols := []int{qBlock / 2, qBlock - 3, qBlock, qBlock + 9, 600}
		for n := 1; n <= 40; n++ {
			cols = append(cols, n)
		}
		for _, n := range cols {
			for _, h := range generalHeads(rng, n) {
				for _, rows := range []int{1, 2} {
					m := requantGeneralScales[rng.Intn(len(requantGeneralScales))]
					checkRequantGeneral(t, rng, h.name, h.e, n, rows, m, randQParams(rng))
				}
			}
		}
	})
}

// TestBlockIterSplitsOnPixels checks QEpilogue's blocks: they tile the
// span in order, hold at most qBlock elements, and each is either whole
// pixels from channel 0 or a piece of one pixel, its channel offset
// being lo mod c.
func TestBlockIterSplitsOnPixels(t *testing.T) {
	for _, c := range []int{0, 1, 3, 8, 100, qBlock - 1, qBlock, qBlock + 1, 700} {
		for n := 0; n <= 1500; n += 7 {
			cc := max(c, 1)
			it := blockIter{n: n, c: c}
			end := 0
			for lo, hi, ch, ok := it.next(); ok; lo, hi, ch, ok = it.next() {
				if lo != end || hi <= lo || hi-lo > qBlock || ch != lo%cc {
					t.Fatalf("c=%d n=%d: block [%d,%d) ch %d after %d", c, n, lo, hi, ch, end)
				}
				if !(ch == 0 && (hi-lo)%cc == 0) && ch+hi-lo > cc {
					t.Fatalf("c=%d n=%d: block [%d,%d) ch %d crosses a pixel", c, n, lo, hi, ch)
				}
				end = hi
			}
			if end != n {
				t.Fatalf("c=%d n=%d: blocks end at %d", c, n, end)
			}
		}
	}
}

// TestLutMapMatchesTable checks that NewLut classifies identity tables
// and that Map reads the table for every index, in place and into
// another slice, on random, clamping and identity tables, without
// writing past its row.
func TestLutMapMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	p := QParams{Scale: 0.04, Zero: -20}
	cases := []struct {
		name     string
		in, out  QParams
		f        func(float32) float32
		identity bool
	}{
		{"identity", p, p, nil, true},
		{"saturated clamp", p, p, func(v float32) float32 { return min(max(v, -10), 10) }, true},
		{"clamp", p, p, func(v float32) float32 { return min(max(v, -1), 2) }, false},
		{"requant", p, QParams{Scale: 0.05, Zero: 3}, nil, false},
		{"tanh", p, QParams{Scale: 1.0 / 127, Zero: 0}, func(v float32) float32 { return float32(math.Tanh(float64(v))) }, false},
	}
	for _, tc := range cases {
		l := NewLut(tc.in, tc.out, tc.f)
		table := QLut(tc.in, tc.out, tc.f)
		if l.Identity() != tc.identity {
			t.Fatalf("%s: Identity() = %v", tc.name, l.Identity())
		}
		for _, n := range []int{0, 1, 7, 256, 1000} {
			src := make([]int8, n)
			for i := range src {
				src[i] = int8(i - 128)
				if i >= 256 {
					src[i] = int8(rng.Intn(256) - 128)
				}
			}
			want := make([]int8, n)
			for i, q := range src {
				want[i] = table[LutIndex(q)]
			}
			got, buf := guarded(n)
			l.Map(got, src)
			checkBoundaryOut(t, fmt.Sprintf("%s n=%d", tc.name, n), buf, want, func(i int) string { return fmt.Sprint(src[i]) })
			copy(got, src)
			l.Map(got, got)
			checkBoundaryOut(t, fmt.Sprintf("%s n=%d in place", tc.name, n), buf, want, func(i int) string { return fmt.Sprint(src[i]) })
		}
	}
}

// fuzzBytes reads the fuzzer's bytes as zero-padded bytes and words.
type fuzzBytes []byte

func (fb fuzzBytes) at(i int) byte {
	if i < len(fb) {
		return fb[i]
	}
	return 0
}

func (fb fuzzBytes) word(i int) uint32 {
	return binary.LittleEndian.Uint32([]byte{fb.at(i), fb.at(i + 1), fb.at(i + 2), fb.at(i + 3)})
}

func (fb fuzzBytes) params(i int) QParams {
	return QParams{Scale: math.Float32frombits(fb.word(i)), Zero: int32(fb.word(i + 4))}
}

// FuzzQAddBitIdentical draws a span length, the three parameter sets,
// the ReLU and clamp flags and bounds, and whether the second operand
// is a bias vector, from the fuzzer's bytes and checks QEpilogue.Add
// against the per-element loops on every kernel path.
func FuzzQAddBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{40, 3, 0x0a, 0xd7, 0xa3, 0x3c, 0xf9, 0xff, 0xff, 0xff, 0x8f, 0xc2, 0x75, 0x3c, 5, 0, 0, 0, 0xcd, 0xcc, 0x4c, 0x3d, 0x80, 0xff, 0xff, 0xff})
	f.Add(int64(2), []byte{9, 1, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0, 0, 0, 0x80, 0x7f, 0xff, 0xff, 0xff, 0x7f})
	f.Add(int64(3), []byte{255, 6, 0x0a, 0xd7, 0x23, 0x3c, 0, 0, 0, 0, 0x0a, 0xd7, 0x23, 0x3c, 0, 0, 0, 0, 0x0a, 0xd7, 0x23, 0x3c, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x3f})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		fb := fuzzBytes(raw)
		n := 1 + int(fb.at(0))*3
		flags := fb.at(1)
		pa, pb, out := fb.params(2), fb.params(10), fb.params(18)
		lo, hi := math.Float32frombits(fb.word(26)), math.Float32frombits(fb.word(30))
		var e Epilogue
		if flags&1 != 0 {
			e = append(e, Stage{Kind: StageRelu})
		}
		if flags&2 != 0 {
			e = append(e, Stage{Kind: StageClamp, Lo: lo, Hi: hi})
		}
		rng := rand.New(rand.NewSource(seed))
		a, b := make([]int8, n), make([]int8, n)
		for i := range a {
			a[i], b[i] = int8(rng.Intn(256)-128), int8(rng.Intn(256)-128)
		}
		var want []int8
		q := NewQEpilogue(e, out)
		if flags&4 != 0 {
			c := 1 + int(fb.at(34))%n
			bias := make([]float32, c)
			for i := range bias {
				bias[i] = epilogueValue(rng)
			}
			n -= n % c
			a = a[:n]
			want = biasAddOracle(a, bias, pa, out, e)
			q = NewQEpilogue(append(Epilogue{{Kind: StageBias, Vec: bias, C: c}}, e...), out)
			b = nil
		} else {
			want = addOracle(a, b, pa, pb, out, e)
		}
		ForEachKernelPath(func(path string) {
			got, buf := guarded(n)
			q.Add(got, a, b, pa, pb)
			label := fmt.Sprintf("%s n=%d flags %#x pa %+v pb %+v out %+v [%g,%g]", path, n, flags, pa, pb, out, lo, hi)
			checkBoundaryOut(t, label, buf, want, func(i int) string { return fmt.Sprint("a ", a[i]) })
		})
	})
}

// FuzzQRequantGeneralBitIdentical draws a row length, one or two rows,
// the accumulator unit, the output parameters and a general head from
// the fuzzer's bytes and checks QEpilogue.Requant against the
// general-stage loop on every kernel path.
func FuzzQRequantGeneralBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{48, 1, 0x8f, 0xc2, 0xf5, 0x39, 0x0a, 0xd7, 0x23, 0x3c, 0xc4, 0xff, 0xff, 0xff, 0})
	f.Add(int64(2), []byte{200, 0, 0, 0, 0xc0, 0x7f, 0x0a, 0xd7, 0x23, 0x3c, 0, 0, 0, 0, 2})
	f.Add(int64(3), []byte{7, 1, 0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x3f, 0x7f, 0, 0, 0, 3})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		fb := fuzzBytes(raw)
		n := 1 + int(fb.at(0))*2
		rows := 1 + int(fb.at(1)&1)
		m := math.Float32frombits(fb.word(2))
		out := fb.params(6)
		rng := rand.New(rand.NewSource(seed))
		heads := generalHeads(rng, n)
		h := heads[int(fb.at(14))%len(heads)]
		acc := make([]int32, rows*n)
		for i := range acc {
			acc[i] = requantAcc(rng, m)
		}
		want := requantGeneralOracle(acc, n, m, out, h.e)
		q := NewQEpilogue(h.e, out)
		ForEachKernelPath(func(path string) {
			got, buf := guarded(len(acc))
			q.Requant(acc, got, m)
			label := fmt.Sprintf("%s %s n=%d rows=%d m=%g out %+v", path, h.name, n, rows, m, out)
			checkBoundaryOut(t, label, buf, want, func(i int) string { return fmt.Sprint("acc ", acc[i]) })
		})
	})
}

// TestQEpilogueConcurrentUse runs one QEpilogue's Requant and Add from
// several goroutines at once, as the shard workers of QMatMul and
// QConvInto call a GEMM's requantize closure, and checks every result
// against a serial run (and, under -race, that they share no writes).
func TestQEpilogueConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const n, workers = 600, 4
	out := QParams{Scale: 0.03, Zero: -5}
	q := NewQEpilogue(generalHeads(rng, n)[1].e, out)
	bias := make([]float32, n)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	qb := NewQEpilogue(Epilogue{{Kind: StageBias, Vec: bias, C: n}, {Kind: StageRelu}}, out)
	acc, x := make([]int32, 2*n), make([]int8, 2*n)
	for i := range acc {
		acc[i], x[i] = requantAcc(rng, 1e-3), int8(rng.Intn(256)-128)
	}
	in := QParams{Scale: 0.02, Zero: 9}
	wantR, wantA := make([]int8, 2*n), make([]int8, 2*n)
	q.Requant(acc, wantR, 1e-3)
	qb.Add(wantA, x, nil, in, QParams{})
	done := make(chan [2][]int8, workers)
	for w := 0; w < workers; w++ {
		go func() {
			r, a := make([]int8, 2*n), make([]int8, 2*n)
			for it := 0; it < 20; it++ {
				q.Requant(acc, r, 1e-3)
				qb.Add(a, x, nil, in, QParams{})
			}
			done <- [2][]int8{r, a}
		}()
	}
	for w := 0; w < workers; w++ {
		got := <-done
		for i := range wantR {
			if got[0][i] != wantR[i] || got[1][i] != wantA[i] {
				t.Fatalf("element %d: concurrent %d/%d, serial %d/%d", i, got[0][i], got[1][i], wantR[i], wantA[i])
			}
		}
	}
}
