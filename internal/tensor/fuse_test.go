package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// applyUnfused is the reference semantics: each stage as its own full
// pass, exactly like the unfused operators execute.
func applyUnfused(stages []Stage, d []float32) {
	for _, st := range stages {
		for i, v := range d {
			switch st.Kind {
			case StageBias:
				v += st.Vec[i%st.C]
			case StageRelu:
				if !(v > 0) { // unfused ReLU: NaN and -0.0 map to +0
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
			d[i] = v
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = float32(rng.NormFloat64() * 3)
	}
	// Special values must round-trip bit-identically too: NaN, ±Inf,
	// and negative zero all have defined behavior in the unfused kernels.
	if n >= 4 {
		d[0] = float32(math.NaN())
		d[1] = float32(math.Inf(1))
		d[2] = float32(math.Inf(-1))
		d[3] = float32(math.Copysign(0, -1))
	}
	return d
}

// TestEpilogueMatchesUnfusedPasses pins the fused single-pass kernel
// bit-identical to sequential per-stage passes for every chain shape the
// compiler produces, including the specialized bias/relu/clamp path and
// the generic fallback.
func TestEpilogueMatchesUnfusedPasses(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		bias := randSlice(rng, 4)
		tanh := func(x float32) float32 { return float32(math.Tanh(float64(x))) }
		chains := map[string][]Stage{
			"bias":            {{Kind: StageBias, Vec: bias, C: 4}},
			"relu":            {{Kind: StageRelu}},
			"clamp":           {{Kind: StageClamp, Lo: -0.5, Hi: 1.25}},
			"bias+relu":       {{Kind: StageBias, Vec: bias, C: 4}, {Kind: StageRelu}},
			"bias+relu+clamp": {{Kind: StageBias, Vec: bias, C: 4}, {Kind: StageRelu}, {Kind: StageClamp, Lo: 0, Hi: 1}},
			"relu+clamp":      {{Kind: StageRelu}, {Kind: StageClamp, Lo: 0.1, Hi: 2}},
			"bias+clamp":      {{Kind: StageBias, Vec: bias, C: 4}, {Kind: StageClamp, Lo: -1, Hi: 1}},
			"bias+tanh+clamp": {{Kind: StageBias, Vec: bias, C: 4}, {Kind: StageMap, F: tanh}, {Kind: StageClamp, Lo: -0.9, Hi: 0.9}},
			"map+scale":       {{Kind: StageMap, F: tanh}, {Kind: StageScale, A: 2}},
			"scale":           {{Kind: StageScale, A: -1.5}},
		}
		for name, stages := range chains {
			data := randSlice(rng, 64)
			want := append([]float32{}, data...)
			applyUnfused(stages, want)
			Epilogue(stages).Apply(data)
			for i := range data {
				if math.Float32bits(data[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: element %d: fused %g != unfused %g", name, i, data[i], want[i])
				}
			}
		}
	})
}

// TestEpilogueCanonicalDetection checks that only in-order
// bias→relu→clamp subsequences take the specialized path.
func TestEpilogueCanonicalDetection(t *testing.T) {
	bias := []float32{1, 2}
	canonChains := [][]Stage{
		{{Kind: StageBias, Vec: bias, C: 2}},
		{{Kind: StageRelu}, {Kind: StageClamp, Lo: 0, Hi: 1}},
		{{Kind: StageBias, Vec: bias, C: 2}, {Kind: StageRelu}, {Kind: StageClamp, Lo: 0, Hi: 1}},
	}
	for i, c := range canonChains {
		if _, ok := Epilogue(c).canonical(); !ok {
			t.Errorf("chain %d: expected canonical", i)
		}
	}
	nonCanon := [][]Stage{
		{{Kind: StageClamp, Lo: 0, Hi: 1}, {Kind: StageRelu}},           // out of order
		{{Kind: StageMap, F: func(v float32) float32 { return v }}},     // generic stage
		{{Kind: StageRelu}, {Kind: StageBias, Vec: bias, C: 2}},         // bias after relu
		{{Kind: StageScale, A: 2}, {Kind: StageClamp, Lo: 0, Hi: 1}},    // scale not canonical
		{{Kind: StageRelu}, {Kind: StageRelu}, {Kind: StageBias, C: 2}}, // repeat + late bias
	}
	for i, c := range nonCanon {
		if _, ok := Epilogue(c).canonical(); ok {
			t.Errorf("chain %d: expected generic fallback", i)
		}
	}
}

func TestEpilogueEmptyIsNoop(t *testing.T) {
	d := []float32{1, -2, 3}
	Epilogue(nil).Apply(d)
	if d[0] != 1 || d[1] != -2 || d[2] != 3 {
		t.Fatalf("empty epilogue mutated data: %v", d)
	}
}

// TestEpilogueBiasIndexesFromChannelBoundary applies bias epilogues,
// canonical and generic, to pixel-aligned sub-slices that start
// mid-tensor, the way graph.Window.Spans hands them out, and compares
// each with applyUnfused over the whole tensor, which indexes the bias
// by the element's flat index, i%c.
func TestEpilogueBiasIndexesFromChannelBoundary(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		tanh := func(x float32) float32 { return float32(math.Tanh(float64(x))) }
		for _, c := range []int{1, 3, 8} {
			b := Stage{Kind: StageBias, Vec: randSlice(rng, c), C: c}
			chains := []struct {
				name   string
				canon  bool
				stages []Stage
			}{
				{"bias", true, []Stage{b}},
				{"bias+relu+clamp", true, []Stage{b, {Kind: StageRelu}, {Kind: StageClamp, Lo: 0, Hi: 1}}},
				{"bias+tanh+clamp", false, []Stage{b, {Kind: StageMap, F: tanh}, {Kind: StageClamp, Lo: -0.9, Hi: 0.9}}},
				{"tanh+bias+scale", false, []Stage{{Kind: StageMap, F: tanh}, b, {Kind: StageScale, A: 2}}},
			}
			const pixels = 12
			whole := randSlice(rng, pixels*c)
			for _, ch := range chains {
				if _, ok := Epilogue(ch.stages).canonical(); ok != ch.canon {
					t.Fatalf("%s: canonical = %t", ch.name, ok)
				}
				want := append([]float32{}, whole...)
				applyUnfused(ch.stages, want)
				for _, span := range [][2]int{{0, pixels}, {1, 2}, {3, 7}, {5, pixels}, {11, pixels}} {
					lo, hi := span[0]*c, span[1]*c
					got := append([]float32{}, whole[lo:hi]...)
					Epilogue(ch.stages).Apply(got)
					for i, v := range got {
						if math.Float32bits(v) != math.Float32bits(want[lo+i]) {
							t.Fatalf("c=%d %s pixels [%d,%d): element %d: %#x != i%%c reference %#x",
								c, ch.name, span[0], span[1], lo+i, math.Float32bits(v), math.Float32bits(want[lo+i]))
						}
					}
				}
			}
		}
	})
}
