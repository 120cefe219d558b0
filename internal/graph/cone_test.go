package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/ops"
	"ranger/internal/tensor"
)

// buildConeNet builds a small residual conv net with every structure
// cone replay must see through: a conv with a fused bias, a ReLU, a
// residual Add, a Concat, a MaxPool, a Flatten and a dense head. With
// computedBias the second conv's fused bias vector is itself a
// computed step (a Scale of a variable), so a strike there dirties a
// fused aux input; the int8 backend quantizes only variable biases, so
// the quantized tests build it with a plain variable. It returns the
// graph, the fetch, the compile options that keep the biases fused, and
// the names of the strikeable steps in schedule order.
func buildConeNet(seed int64, computedBias bool) (*graph.Graph, string, graph.CompileOptions, []string) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	geom := tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1}
	x := g.MustAdd("x", &graph.Placeholder{Shape: []int{0, 8, 8, 2}})
	w1 := g.MustAdd("w1", &graph.Variable{Value: tensor.New(3, 3, 2, 4).Randn(rng, 0.5)})
	c1 := g.MustAdd("c1", &ops.Conv2DOp{Geom: geom}, x, w1)
	b1 := g.MustAdd("b1", &graph.Variable{Value: tensor.New(4).Randn(rng, 0.3)})
	c1b := g.MustAdd("c1b", ops.BiasAddOp{}, c1, b1)
	r1 := g.MustAdd("r1", ops.Relu(), c1b)
	var b2 *graph.Node
	if computedBias {
		bv := g.MustAdd("bv", &graph.Variable{Value: tensor.New(4).Randn(rng, 0.3)})
		b2 = g.MustAdd("sv", &ops.ScaleOp{Factor: 1.5}, bv)
	} else {
		b2 = g.MustAdd("b2", &graph.Variable{Value: tensor.New(4).Randn(rng, 0.3)})
	}
	w2 := g.MustAdd("w2", &graph.Variable{Value: tensor.New(3, 3, 4, 4).Randn(rng, 0.4)})
	c2 := g.MustAdd("c2", &ops.Conv2DOp{Geom: geom}, r1, w2)
	c2b := g.MustAdd("c2b", ops.BiasAddOp{}, c2, b2)
	add := g.MustAdd("add", ops.AddOp{}, c2b, r1)
	r2 := g.MustAdd("r2", ops.Relu(), add)
	cat := g.MustAdd("cat", ops.ConcatOp{}, r2, r1)
	pool := g.MustAdd("pool", &ops.MaxPoolOp{Geom: tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2}}, cat)
	flat := g.MustAdd("flat", ops.Flatten(), pool)
	w3 := g.MustAdd("w3", &graph.Variable{Value: tensor.New(4*4*8, 5).Randn(rng, 0.3)})
	fc := g.MustAdd("fc", ops.DenseOp{}, flat, w3)
	b3 := g.MustAdd("b3", &graph.Variable{Value: tensor.New(5).Randn(rng, 0.2)})
	out := g.MustAdd("out", ops.BiasAddOp{}, fc, b3)

	// Every computed node but the bias anchors is an observation point,
	// so each BiasAdd folds into its producer's step as a fused epilogue.
	var observe, strikeable []string
	for _, n := range g.Nodes() {
		switch n.Op().(type) {
		case *graph.Placeholder, *graph.Variable:
			continue
		}
		if n == c1 || n == c2 || n == fc {
			continue
		}
		observe = append(observe, n.Name())
		strikeable = append(strikeable, n.Name())
	}
	return g, out.Name(), graph.CompileOptions{Observe: observe}, strikeable
}

func coneFeeds(seed int64) graph.Feeds {
	rng := rand.New(rand.NewSource(seed))
	return graph.Feeds{"x": tensor.New(1, 8, 8, 2).RandUniform(rng, -1, 1)}
}

// strike is one in-place corruption of a step's output. Its kind picks
// the corruption: 0 rewrites an element with its own value (a no-op),
// 1 lowers the smallest element (absorbed by a following ReLU or
// MaxPool), 2 raises the largest one (propagates).
type strike struct {
	node string
	kind byte
}

func corruptF32(d []float32, kind byte) {
	lo, hi := 0, 0
	for i, v := range d {
		if v < d[lo] {
			lo = i
		}
		if v > d[hi] {
			hi = i
		}
	}
	switch kind % 3 {
	case 0:
		v := d[0]
		d[0] = v
	case 1:
		d[lo]--
	case 2:
		d[hi] += 8
	}
}

func corruptI8(d []int8, kind byte) {
	lo, hi := 0, 0
	for i, v := range d {
		if v < d[lo] {
			lo = i
		}
		if v > d[hi] {
			hi = i
		}
	}
	switch kind % 3 {
	case 0:
		v := d[0]
		d[0] = v
	case 1:
		if d[lo] > math.MinInt8 {
			d[lo]--
		}
	case 2:
		if d[hi] < math.MaxInt8 {
			d[hi] = math.MaxInt8
		} else {
			d[hi] = 0
		}
	}
}

// coneArgs resolves strikes to the struck bitset and RunFrom's start.
func coneArgs(t testing.TB, stepOf func(string) int, steps int, strikes []strike) (graph.Bits, int) {
	t.Helper()
	struck := graph.NewBits(steps)
	start := steps
	for _, s := range strikes {
		si := stepOf(s.node)
		if si < 0 {
			t.Fatalf("no step for %q", s.node)
		}
		struck.Set(si)
		start = min(start, si)
	}
	return struck, start
}

func sameBitsT(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// checkConeF32 replays strikes with RunFrom and RunCone, in place on
// long-lived states like a campaign worker, and fails unless the
// outputs match bit for bit and masked is exactly "equal to the clean
// output". It returns masked.
func checkConeF32(t testing.TB, plan *graph.Plan, ck *graph.Checkpoint, fromSt, coneSt *graph.PlanState, strikes []strike) bool {
	t.Helper()
	hook := func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		for _, s := range strikes {
			if s.node == n.Name() {
				corruptF32(out.Data(), s.kind)
			}
		}
		return nil
	}
	struck, start := coneArgs(t, plan.StepOf, plan.Steps(), strikes)
	want, err := plan.RunFrom(fromSt, ck, start, hook)
	if err != nil {
		t.Fatal(err)
	}
	got, masked, err := plan.RunCone(coneSt, ck, struck, hook)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBitsT(want[0], got[0]) {
		t.Fatalf("strikes %v: RunCone output differs from RunFrom(%d)", strikes, start)
	}
	if equal := sameBitsT(ck.Output(0), got[0]); masked != equal {
		t.Fatalf("strikes %v: masked=%v, output equals clean=%v", strikes, masked, equal)
	}
	return masked
}

// checkConeInt8 is checkConeF32 on the quantized plan.
func checkConeInt8(t testing.TB, qp *graph.QPlan, ck *graph.QCheckpoint, fromSt, coneSt *graph.QPlanState, strikes []strike) bool {
	t.Helper()
	hook := func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
		for _, s := range strikes {
			if s.node == n.Name() {
				corruptI8(out.Data(), s.kind)
			}
		}
		return nil
	}
	struck, start := coneArgs(t, qp.StepOf, qp.Steps(), strikes)
	want, err := qp.RunFrom(fromSt, ck, start, hook)
	if err != nil {
		t.Fatal(err)
	}
	got, masked, err := qp.RunCone(coneSt, ck, struck, hook)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBitsT(want[0], got[0]) {
		t.Fatalf("strikes %v: int8 RunCone output differs from RunFrom(%d)", strikes, start)
	}
	if equal := sameBitsT(ck.Output(0), got[0]); masked != equal {
		t.Fatalf("strikes %v: int8 masked=%v, output equals clean=%v", strikes, masked, equal)
	}
	return masked
}

// strikeSweep lists every single strike of every kind, then every
// ordered pair of a lowering and a raising strike on two steps.
func strikeSweep(names []string) [][]strike {
	var sweep [][]strike
	for _, n := range names {
		for kind := byte(0); kind < 3; kind++ {
			sweep = append(sweep, []strike{{n, kind}})
		}
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			sweep = append(sweep, []strike{{a, 1}, {b, 2}}, []strike{{a, 2}, {b, 1}})
		}
	}
	return sweep
}

// TestRunConeMatchesRunFrom pins cone replay to suffix replay on fp32
// and int8: every step struck with a no-op, an absorbed and a
// propagating corruption, alone and in pairs, on reused states. It also
// checks that masking actually happens where the operators absorb the
// fault (a lowered minimum before a ReLU or a MaxPool), that a no-op
// strike is masked, and that an empty strike set returns the clean
// outputs.
func TestRunConeMatchesRunFrom(t *testing.T) {
	absorbed := []strike{{"c1b", 1}, {"add", 1}, {"cat", 1}}
	t.Run("fp32", func(t *testing.T) {
		g, output, opts, names := buildConeNet(1, true)
		plan, err := graph.CompileWith(g, opts, output)
		if err != nil {
			t.Fatal(err)
		}
		if plan.FusedNodes() != 3 {
			t.Fatalf("fused %d nodes, want the three bias adds", plan.FusedNodes())
		}
		ck, err := plan.Checkpoint(plan.NewState(), coneFeeds(2))
		if err != nil {
			t.Fatal(err)
		}
		fromSt, coneSt := plan.NewState(), plan.NewState()
		masked := 0
		sweep := strikeSweep(names)
		for _, strikes := range sweep {
			if checkConeF32(t, plan, ck, fromSt, coneSt, strikes) {
				masked++
			}
		}
		if masked == 0 || masked == len(sweep) {
			t.Fatalf("%d of %d strike sets masked; want both outcomes", masked, len(sweep))
		}
		for _, s := range append(absorbed, strike{"sv", 0}, strike{"pool", 0}) {
			if !checkConeF32(t, plan, ck, fromSt, coneSt, []strike{s}) {
				t.Errorf("strike %v not masked", s)
			}
		}
		outs, m, err := plan.RunCone(coneSt, ck, graph.NewBits(plan.Steps()), nil)
		if err != nil || !m || outs[0] != ck.Output(0) {
			t.Fatalf("empty strike set: masked=%v err=%v, want the clean output", m, err)
		}

		// A Variable override counts as differing: its consumers replay.
		w3 := plan.VarValue("w3").Clone()
		for i := range w3.Data() {
			w3.Data()[i] += 4
		}
		if err := plan.OverrideVar(fromSt, "w3", w3); err != nil {
			t.Fatal(err)
		}
		if err := plan.OverrideVar(coneSt, "w3", w3); err != nil {
			t.Fatal(err)
		}
		if checkConeF32(t, plan, ck, fromSt, coneSt, []strike{{"add", 0}}) {
			t.Fatal("corrupted weight override reported as masked")
		}
	})
	t.Run("int8", func(t *testing.T) {
		g, output, opts, names := buildConeNet(1, false)
		feeds := coneFeeds(2)
		calib := calibrate(t, g, output, []graph.Feeds{feeds, coneFeeds(3)})
		plan, err := graph.CompileWith(g, opts, output)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := graph.Quantize(plan, calib)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := qp.Checkpoint(qp.NewState(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		fromSt, coneSt := qp.NewState(), qp.NewState()
		masked := 0
		sweep := strikeSweep(names)
		for _, strikes := range sweep {
			if checkConeInt8(t, qp, ck, fromSt, coneSt, strikes) {
				masked++
			}
		}
		if masked == 0 || masked == len(sweep) {
			t.Fatalf("%d of %d int8 strike sets masked; want both outcomes", masked, len(sweep))
		}
		for _, s := range append(absorbed, strike{"pool", 0}) {
			if !checkConeInt8(t, qp, ck, fromSt, coneSt, []strike{s}) {
				t.Errorf("int8 strike %v not masked", s)
			}
		}

		// Overridden kernels and output parameters always replay.
		for _, st := range []*graph.QPlanState{fromSt, coneSt} {
			buf, err := qp.MaterializeWeights(st, "c2b")
			if err != nil {
				t.Fatal(err)
			}
			buf[0] ^= 1 << 6
		}
		if checkConeInt8(t, qp, ck, fromSt, coneSt, []strike{{"r1", 0}}) {
			t.Fatal("corrupted stored weight reported as masked")
		}
		for _, st := range []*graph.QPlanState{fromSt, coneSt} {
			st.ClearOverrides()
			p, _ := qp.StepParams("pool")
			p.Scale *= 2
			if err := qp.PatchOutParams(st, "pool", p); err != nil {
				t.Fatal(err)
			}
		}
		if checkConeInt8(t, qp, ck, fromSt, coneSt, []strike{{"cat", 0}}) {
			t.Fatal("corrupted output parameters reported as masked")
		}
	})
}

// FuzzConeReplayBitIdentical turns TestRunConeMatchesRunFrom into a
// property: for random weights and input (seed) and a random strike set
// (each program byte pair names a step and a corruption kind), cone
// replay must equal suffix replay bit for bit on fp32 and int8, with
// masked true exactly when the output equals the clean one.
func FuzzConeReplayBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{0, 1})
	f.Add(int64(2), []byte{3, 1, 6, 2})
	f.Add(int64(3), []byte{1, 0, 4, 1, 7, 2})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) > 16 {
			prog = prog[:16]
		}
		feeds := coneFeeds(seed + 1)
		for _, computed := range []bool{true, false} {
			g, output, opts, names := buildConeNet(seed, computed)
			var strikes []strike
			for i := 0; i+1 < len(prog); i += 2 {
				strikes = append(strikes, strike{names[int(prog[i])%len(names)], prog[i+1]})
			}
			plan, err := graph.CompileWith(g, opts, output)
			if err != nil {
				t.Fatal(err)
			}
			if computed {
				ck, err := plan.Checkpoint(plan.NewState(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				checkConeF32(t, plan, ck, plan.NewState(), plan.NewState(), strikes)
				continue
			}
			calib := calibrate(t, g, output, []graph.Feeds{feeds})
			qp, err := graph.Quantize(plan, calib)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := qp.Checkpoint(qp.NewState(), feeds)
			if err != nil {
				t.Fatal(err)
			}
			checkConeInt8(t, qp, ck, qp.NewState(), qp.NewState(), strikes)
		}
	})
}
