package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/graph"
	"ranger/internal/ops"
	"ranger/internal/tensor"
)

// coneGeom is the geometry of buildConeNet: the input's batch and
// spatial size, the first conv's geometry, the odd kernel of the
// shape-preserving residual conv, and the max and average pools.
type coneGeom struct {
	n, h, w    int
	c1         tensor.ConvGeom
	k2         int
	pool, avg  tensor.ConvGeom
	noAvgPool  bool
	outH, outW int // spatial size entering the dense head
}

// fixedConeGeom is the hand-picked geometry: 3×3 SAME convs and a 2×2
// stride-2 max pool over one 8×8 image, no average pool.
func fixedConeGeom() coneGeom {
	return coneGeom{
		n: 1, h: 8, w: 8,
		c1:        tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1},
		k2:        3,
		pool:      tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2},
		noAvgPool: true,
		outH:      4, outW: 4,
	}
}

// randConeGeom draws a geometry from rng: batch 2, conv kernels 1–5,
// strides 1–3, padding 0–2, and spatial sizes the strides do not divide.
// Pools get padding below their kernel, so no pooled window lies wholly
// in padding.
func randConeGeom(rng *rand.Rand) coneGeom {
	g := coneGeom{n: 2}
	g.c1 = tensor.ConvGeom{KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), SH: 1 + rng.Intn(3), SW: 1 + rng.Intn(3), PadH: rng.Intn(3), PadW: rng.Intn(3)}
	g.h, g.w = 6+rng.Intn(7), 6+rng.Intn(7)
	if g.c1.SH > 1 && g.h%g.c1.SH == 0 {
		g.h++
	}
	if g.c1.SW > 1 && g.w%g.c1.SW == 0 {
		g.w++
	}
	g.k2 = 1 + 2*rng.Intn(3)
	h, w := g.c1.OutDims(g.h, g.w)
	pool := func(h, w int) (tensor.ConvGeom, int, int) {
		for {
			p := tensor.ConvGeom{KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), SH: 1 + rng.Intn(3), SW: 1 + rng.Intn(3)}
			p.PadH, p.PadW = rng.Intn(min(p.KH, 3)), rng.Intn(min(p.KW, 3))
			if oh, ow := p.OutDims(h, w); oh > 0 && ow > 0 {
				return p, oh, ow
			}
		}
	}
	g.pool, h, w = pool(h, w)
	g.avg, g.outH, g.outW = pool(h, w)
	return g
}

// buildConeNet builds a small residual conv net with every structure
// cone replay must see through: a conv with a fused bias, a ReLU, a
// shape-preserving conv whose fused-bias output meets the first ReLU
// in a residual Add, a Concat of the two branches, a MaxPool and
// (unless geo.noAvgPool) an AvgPool, a Flatten and a dense head. With
// computedBias the second conv's fused bias vector is itself a computed
// step (a Scale of a variable), so a strike there dirties a fused aux
// input; the int8 backend quantizes only variable biases, so the
// quantized tests build it with a plain variable. It returns the graph,
// the fetch, the compile options that keep the biases fused, and the
// names of the strikeable steps in schedule order.
func buildConeNet(seed int64, computedBias bool, geo coneGeom) (*graph.Graph, string, graph.CompileOptions, []string) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	same := tensor.ConvGeom{KH: geo.k2, KW: geo.k2, SH: 1, SW: 1, PadH: geo.k2 / 2, PadW: geo.k2 / 2}
	x := g.MustAdd("x", &graph.Placeholder{Shape: []int{0, geo.h, geo.w, 2}})
	w1 := g.MustAdd("w1", &graph.Variable{Value: tensor.New(geo.c1.KH, geo.c1.KW, 2, 4).Randn(rng, 0.5)})
	c1 := g.MustAdd("c1", &ops.Conv2DOp{Geom: geo.c1}, x, w1)
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
	w2 := g.MustAdd("w2", &graph.Variable{Value: tensor.New(geo.k2, geo.k2, 4, 4).Randn(rng, 0.4)})
	c2 := g.MustAdd("c2", &ops.Conv2DOp{Geom: same}, r1, w2)
	c2b := g.MustAdd("c2b", ops.BiasAddOp{}, c2, b2)
	add := g.MustAdd("add", ops.AddOp{}, c2b, r1)
	r2 := g.MustAdd("r2", ops.Relu(), add)
	cat := g.MustAdd("cat", ops.ConcatOp{}, r2, r1)
	pooled := g.MustAdd("pool", &ops.MaxPoolOp{Geom: geo.pool}, cat)
	if !geo.noAvgPool {
		pooled = g.MustAdd("avg", &ops.AvgPoolOp{Geom: geo.avg}, pooled)
	}
	flat := g.MustAdd("flat", ops.Flatten(), pooled)
	w3 := g.MustAdd("w3", &graph.Variable{Value: tensor.New(geo.outH*geo.outW*8, 5).Randn(rng, 0.3)})
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

func coneFeeds(seed int64, geo coneGeom) graph.Feeds {
	rng := rand.New(rand.NewSource(seed))
	return graph.Feeds{"x": tensor.New(geo.n, geo.h, geo.w, 2).RandUniform(rng, -1, 1)}
}

// Strike positions: the clean value's smallest and largest element, the
// two opposite corner pixels (first image's first channel, last image's
// last channel), and the middle of the top and right edges.
const (
	atMin byte = iota
	atMax
	atCornerFirst
	atCornerLast
	atTopEdge
	atRightEdge
	positions
)

// strike is one in-place corruption of a step's output: pos picks the
// element (see atMin etc.) and kind the corruption: 0 rewrites the
// element with its own value (a no-op), 1 lowers it (absorbed by a
// following ReLU or MaxPool when it is the minimum), 2 raises it.
type strike struct {
	node      string
	pos, kind byte
}

func (s strike) String() string { return fmt.Sprintf("%s@%d/%d", s.node, s.pos, s.kind) }

// elemAt resolves a strike position to a flat element of a clean value
// of the given shape and data.
func elemAt[T float32 | int8](pos byte, shape []int, d []T) int {
	n, h, w, c := graph.PixelDims(shape)
	pixel := func(b, y, x, ch int) int { return ((b*h+y)*w+x)*c + ch }
	switch pos % positions {
	case atMin, atMax:
		best := 0
		for i, v := range d {
			if (pos%positions == atMin && v < d[best]) || (pos%positions == atMax && v > d[best]) {
				best = i
			}
		}
		return best
	case atCornerFirst:
		return 0
	case atCornerLast:
		return pixel(n-1, h-1, w-1, c-1)
	case atTopEdge:
		return pixel(0, 0, w/2, 0)
	default:
		return pixel(n-1, h/2, w-1, c/2)
	}
}

func corruptF32(d []float32, e int, kind byte) {
	switch kind % 3 {
	case 0:
		v := d[e]
		d[e] = v
	case 1:
		d[e]--
	case 2:
		d[e] += 8
	}
}

func corruptI8(d []int8, e int, kind byte) {
	switch kind % 3 {
	case 0:
		v := d[e]
		d[e] = v
	case 1:
		if d[e] > math.MinInt8 {
			d[e]--
		}
	case 2:
		if d[e] < math.MaxInt8 {
			d[e] = math.MaxInt8
		} else {
			d[e] = 0
		}
	}
}

// resolved is a strike with its element resolved on the clean pass.
type resolved struct {
	strike
	elem int
}

// coneArgs resolves strikes against the clean values and returns them
// with the strike set and the earliest struck step, lowered to floor.
func coneArgs(t testing.TB, stepOf func(string) int, steps int, strikes []strike, elem func(strike) int, floor int) ([]resolved, *graph.Strikes, int) {
	t.Helper()
	set := graph.NewStrikes(steps)
	start := floor
	var rs []resolved
	for _, s := range strikes {
		si := stepOf(s.node)
		if si < 0 {
			t.Fatalf("no step for %q", s.node)
		}
		r := resolved{s, elem(s)}
		rs = append(rs, r)
		set.Add(si, r.elem)
		start = min(start, si)
	}
	return rs, set, start
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

// coneF32 is one fp32 plan under test: its checkpoint, the clean value
// of every observed node (to resolve strike positions), and long-lived
// states for suffix and cone replay, reused like a campaign worker's.
type coneF32 struct {
	plan           *graph.Plan
	ck             *graph.Checkpoint
	clean          map[string]*tensor.Tensor
	fromSt, coneSt *graph.PlanState
}

func newConeF32(t testing.TB, plan *graph.Plan, feeds graph.Feeds) *coneF32 {
	t.Helper()
	ck, err := plan.Checkpoint(plan.NewState(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	clean := map[string]*tensor.Tensor{}
	if _, err := plan.RunHook(plan.NewState(), feeds, func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		clean[n.Name()] = out.Clone()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return &coneF32{plan, ck, clean, plan.NewState(), plan.NewState()}
}

// check replays strikes with RunFrom and RunCone, in place, and fails
// unless the outputs match bit for bit and masked is exactly "equal to
// the clean output". floor lowers RunFrom's start (for state overrides
// read before the first strike). It returns masked.
func (c *coneF32) check(t testing.TB, strikes []strike, floor int) bool {
	t.Helper()
	rs, set, start := coneArgs(t, c.plan.StepOf, c.plan.Steps(), strikes, func(s strike) int {
		v := c.clean[s.node]
		return elemAt(s.pos, v.Shape(), v.Data())
	}, floor)
	hook := func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		for _, r := range rs {
			if r.node == n.Name() {
				corruptF32(out.Data(), r.elem, r.kind)
			}
		}
		return nil
	}
	want, err := c.plan.RunFrom(c.fromSt, c.ck, start, hook)
	if err != nil {
		t.Fatal(err)
	}
	got, masked, err := c.plan.RunCone(c.coneSt, c.ck, set, hook)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBitsT(want[0], got[0]) {
		t.Fatalf("strikes %v: RunCone output differs from RunFrom(%d)", strikes, start)
	}
	if equal := sameBitsT(c.ck.Output(0), got[0]); masked != equal {
		t.Fatalf("strikes %v: masked=%v, output equals clean=%v", strikes, masked, equal)
	}
	return masked
}

// coneInt8 is coneF32 on the quantized plan.
type coneInt8 struct {
	qp             *graph.QPlan
	ck             *graph.QCheckpoint
	clean          map[string]*tensor.QTensor
	fromSt, coneSt *graph.QPlanState
}

func newConeInt8(t testing.TB, qp *graph.QPlan, feeds graph.Feeds) *coneInt8 {
	t.Helper()
	ck, err := qp.Checkpoint(qp.NewState(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	clean := map[string]*tensor.QTensor{}
	if _, err := qp.RunHook(qp.NewState(), feeds, func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
		clean[n.Name()] = out.Clone()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return &coneInt8{qp, ck, clean, qp.NewState(), qp.NewState()}
}

func (c *coneInt8) check(t testing.TB, strikes []strike, floor int) bool {
	t.Helper()
	rs, set, start := coneArgs(t, c.qp.StepOf, c.qp.Steps(), strikes, func(s strike) int {
		v := c.clean[s.node]
		return elemAt(s.pos, v.Shape(), v.Data())
	}, floor)
	hook := func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
		for _, r := range rs {
			if r.node == n.Name() {
				corruptI8(out.Data(), r.elem, r.kind)
			}
		}
		return nil
	}
	want, err := c.qp.RunFrom(c.fromSt, c.ck, start, hook)
	if err != nil {
		t.Fatal(err)
	}
	got, masked, err := c.qp.RunCone(c.coneSt, c.ck, set, hook)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBitsT(want[0], got[0]) {
		t.Fatalf("strikes %v: int8 RunCone output differs from RunFrom(%d)", strikes, start)
	}
	if equal := sameBitsT(c.ck.Output(0), got[0]); masked != equal {
		t.Fatalf("strikes %v: int8 masked=%v, output equals clean=%v", strikes, masked, equal)
	}
	return masked
}

// strikeSweep lists every single strike of every kind at every
// position, then every ordered pair of a lowering and a raising strike
// on two steps at opposite corners, and pairs at the two edges and the
// extremes whose windows merge in the residual Add (c2b with r1) and the
// Concat (r2 with r1).
func strikeSweep(names []string) [][]strike {
	var sweep [][]strike
	for _, n := range names {
		for pos := byte(0); pos < positions; pos++ {
			for kind := byte(0); kind < 3; kind++ {
				sweep = append(sweep, []strike{{n, pos, kind}})
			}
		}
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			sweep = append(sweep,
				[]strike{{a, atCornerFirst, 1}, {b, atCornerLast, 2}},
				[]strike{{a, atMax, 2}, {b, atMin, 1}})
		}
	}
	for _, pair := range [][2]string{{"c2b", "r1"}, {"r2", "r1"}} {
		for _, pos := range [][2]byte{{atTopEdge, atRightEdge}, {atMax, atMax}, {atCornerFirst, atTopEdge}} {
			sweep = append(sweep, []strike{{pair[0], pos[0], 2}, {pair[1], pos[1], 2}})
		}
	}
	return sweep
}

// coneGeoms returns the fixed geometry and n random ones.
func coneGeoms(n int) []coneGeom {
	geos := []coneGeom{fixedConeGeom()}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		geos = append(geos, randConeGeom(rng))
	}
	return geos
}

// TestRunConeMatchesRunFrom pins window replay to suffix replay on fp32
// and int8: every step struck with a no-op, a lowering and a raising
// corruption at its extremes, corners and edges, alone and in pairs,
// over the fixed geometry and random conv and pool geometries, on reused
// states. On the fixed geometry it also checks that masking actually
// happens where the operators absorb the fault (a lowered minimum
// before a ReLU or a MaxPool), that a no-op strike is masked, that an
// empty strike set returns the clean outputs, and that state overrides
// read before the first strike replay from their first reader.
func TestRunConeMatchesRunFrom(t *testing.T) {
	absorbed := []strike{{"c1b", atMin, 1}, {"add", atMin, 1}, {"cat", atMin, 1}}
	t.Run("fp32", func(t *testing.T) {
		for gi, geo := range coneGeoms(6) {
			g, output, opts, names := buildConeNet(1, true, geo)
			plan, err := graph.CompileWith(g, opts, output)
			if err != nil {
				t.Fatal(err)
			}
			if plan.FusedNodes() != 3 {
				t.Fatalf("fused %d nodes, want the three bias adds", plan.FusedNodes())
			}
			c := newConeF32(t, plan, coneFeeds(2, geo))
			masked := 0
			sweep := strikeSweep(names)
			for _, strikes := range sweep {
				if c.check(t, strikes, plan.Steps()) {
					masked++
				}
			}
			if masked == 0 || masked == len(sweep) {
				t.Fatalf("geometry %d: %d of %d strike sets masked; want both outcomes", gi, masked, len(sweep))
			}
			if gi > 0 {
				continue
			}
			for _, s := range append(absorbed, strike{"sv", atMax, 0}, strike{"pool", atMin, 0}) {
				if !c.check(t, []strike{s}, plan.Steps()) {
					t.Errorf("strike %v not masked", s)
				}
			}
			outs, m, err := plan.RunCone(c.coneSt, c.ck, graph.NewStrikes(plan.Steps()), nil)
			if err != nil || !m || outs[0] != c.ck.Output(0) {
				t.Fatalf("empty strike set: masked=%v err=%v, want the clean output", m, err)
			}

			// A Variable override counts as differing everywhere: its
			// readers replay, from the first one even when it precedes
			// every strike.
			for _, name := range []string{"w3", "w1"} {
				v := plan.VarValue(name).Clone()
				for i := range v.Data() {
					v.Data()[i] += 4
				}
				for _, st := range []*graph.PlanState{c.fromSt, c.coneSt} {
					st.ClearVarOverrides()
					if err := plan.OverrideVar(st, name, v); err != nil {
						t.Fatal(err)
					}
				}
				if c.check(t, []strike{{"add", atMax, 0}}, plan.VarDepth(name)) {
					t.Fatalf("corrupted weight override of %s reported as masked", name)
				}
			}
		}
	})
	t.Run("int8", func(t *testing.T) {
		for gi, geo := range coneGeoms(6) {
			g, output, opts, names := buildConeNet(1, false, geo)
			feeds := coneFeeds(2, geo)
			calib := calibrate(t, g, output, []graph.Feeds{feeds, coneFeeds(3, geo)})
			plan, err := graph.CompileWith(g, opts, output)
			if err != nil {
				t.Fatal(err)
			}
			qp, err := graph.Quantize(plan, calib)
			if err != nil {
				t.Fatal(err)
			}
			c := newConeInt8(t, qp, feeds)
			masked := 0
			sweep := strikeSweep(names)
			for _, strikes := range sweep {
				if c.check(t, strikes, qp.Steps()) {
					masked++
				}
			}
			if masked == 0 || masked == len(sweep) {
				t.Fatalf("geometry %d: %d of %d int8 strike sets masked; want both outcomes", gi, masked, len(sweep))
			}
			if gi > 0 {
				continue
			}
			for _, s := range append(absorbed, strike{"pool", atMin, 0}) {
				if !c.check(t, []strike{s}, qp.Steps()) {
					t.Errorf("int8 strike %v not masked", s)
				}
			}

			// Overridden kernels and output parameters always replay,
			// from the first of them even when it precedes every strike.
			for _, name := range []string{"c2b", "c1b"} {
				for _, st := range []*graph.QPlanState{c.fromSt, c.coneSt} {
					st.ClearOverrides()
					buf, err := qp.MaterializeWeights(st, name)
					if err != nil {
						t.Fatal(err)
					}
					buf[0] ^= 1 << 6
				}
				if c.check(t, []strike{{"cat", atMax, 0}}, qp.StepOf(name)) {
					t.Fatalf("corrupted stored weight of %s reported as masked", name)
				}
			}
			for _, st := range []*graph.QPlanState{c.fromSt, c.coneSt} {
				st.ClearOverrides()
				p, _ := qp.StepParams("pool")
				p.Scale *= 2
				if err := qp.PatchOutParams(st, "pool", p); err != nil {
					t.Fatal(err)
				}
			}
			if c.check(t, []strike{{"cat", atMin, 0}}, qp.Steps()) {
				t.Fatal("corrupted output parameters reported as masked")
			}
		}
	})
}

// FuzzConeReplayBitIdentical turns TestRunConeMatchesRunFrom into a
// property: for a random geometry, weights and input (seed) and a random
// strike set (each program byte triple names a step, a position and a
// corruption kind), window replay must equal suffix replay bit for bit
// on fp32 and int8, with masked true exactly when the output equals the
// clean one.
func FuzzConeReplayBitIdentical(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1})
	f.Add(int64(2), []byte{3, 2, 1, 6, 3, 2})
	f.Add(int64(3), []byte{1, 4, 0, 4, 5, 1, 7, 1, 2})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) > 24 {
			prog = prog[:24]
		}
		geo := randConeGeom(rand.New(rand.NewSource(seed)))
		feeds := coneFeeds(seed+1, geo)
		for _, computed := range []bool{true, false} {
			g, output, opts, names := buildConeNet(seed, computed, geo)
			var strikes []strike
			for i := 0; i+2 < len(prog); i += 3 {
				strikes = append(strikes, strike{names[int(prog[i])%len(names)], prog[i+1], prog[i+2]})
			}
			plan, err := graph.CompileWith(g, opts, output)
			if err != nil {
				t.Fatal(err)
			}
			if computed {
				newConeF32(t, plan, feeds).check(t, strikes, plan.Steps())
				continue
			}
			calib := calibrate(t, g, output, []graph.Feeds{feeds})
			qp, err := graph.Quantize(plan, calib)
			if err != nil {
				t.Fatal(err)
			}
			newConeInt8(t, qp, feeds).check(t, strikes, qp.Steps())
		}
	})
}
