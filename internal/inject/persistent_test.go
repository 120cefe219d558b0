package inject

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

// alwaysDetector flags every observed execution — the degenerate
// upper bound of detection, handy for pinning repair mechanics.
type alwaysDetector struct{ fired bool }

func (d *alwaysDetector) Name() string                            { return "always" }
func (d *alwaysDetector) Reset()                                  { d.fired = false }
func (d *alwaysDetector) Observe(_ *graph.Node, _ *tensor.Tensor) { d.fired = true }
func (d *alwaysDetector) Detected() bool                          { return d.fired }
func (d *alwaysDetector) CloneDetector() Detector                 { return &alwaysDetector{} }

// magDetector flags values above a magnitude bound or NaN — a
// miniature symptom detector with partial coverage.
type magDetector struct {
	limit float64
	fired bool
}

func (d *magDetector) Name() string { return "mag" }
func (d *magDetector) Reset()       { d.fired = false }
func (d *magDetector) Observe(_ *graph.Node, out *tensor.Tensor) {
	if d.fired {
		return
	}
	for _, v := range out.Data() {
		f := float64(v)
		if math.IsNaN(f) || math.Abs(f) > d.limit {
			d.fired = true
			return
		}
	}
}
func (d *magDetector) Detected() bool          { return d.fired }
func (d *magDetector) CloneDetector() Detector { return &magDetector{limit: d.limit} }

// checkPersistentInvariants asserts the internal consistency every
// PersistentOutcome must satisfy.
func checkPersistentInvariants(t *testing.T, o PersistentOutcome, sequences int64) {
	t.Helper()
	if o.Sequences != sequences {
		t.Fatalf("sequences = %d, want %d", o.Sequences, sequences)
	}
	if len(o.DetectionLatencies) != o.Detected {
		t.Fatalf("detected %d but %d latencies", o.Detected, len(o.DetectionLatencies))
	}
	for _, l := range o.DetectionLatencies {
		if l < 1 {
			t.Fatalf("detection latency %d < 1", l)
		}
	}
	for _, l := range o.FirstSDCLatencies {
		if l < 1 {
			t.Fatalf("first-SDC latency %d < 1", l)
		}
	}
	if o.PostRepairOK > o.Repairs {
		t.Fatalf("post-repair OK %d > repairs %d", o.PostRepairOK, o.Repairs)
	}
	if o.Repairs > o.Detected {
		t.Fatalf("repairs %d > detected %d", o.Repairs, o.Detected)
	}
	if int64(o.Detected)+int64(o.DUEs) > o.Sequences {
		t.Fatalf("detected %d + DUEs %d > sequences %d", o.Detected, o.DUEs, o.Sequences)
	}
}

func TestPersistentWeightFP32Runs(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	c := &Campaign{Model: m, Trials: 12, Seed: 7, Surface: WeightSurface{}, SequenceLen: 5}
	out, err := c.RunPersistent(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	checkPersistentInvariants(t, out, 12)
	if out.Detected != 0 {
		t.Fatalf("no detector attached but %d detections", out.Detected)
	}
	// Without a detector every sequence runs its full length.
	if out.Inferences != 12*5 {
		t.Fatalf("inferences = %d, want %d", out.Inferences, 12*5)
	}
}

func TestPersistentDeterministicAcrossWorkers(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	run := func(workers int) PersistentOutcome {
		c := &Campaign{
			Model: m, Trials: 16, Seed: 3, Surface: WeightSurface{},
			SequenceLen: 4, Workers: workers,
			Detector: &magDetector{limit: 50}, Repair: true,
		}
		out, err := c.RunPersistent(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d outcome differs:\n%+v\nvs\n%+v", w, got, base)
		}
	}
}

func TestPersistentSliceFoldsLikeFullRun(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{Model: m, Trials: 10, Seed: 5, Surface: WeightSurface{}, SequenceLen: 3}
	ctx := context.Background()
	full, err := c.RunPersistent(ctx, feeds)
	if err != nil {
		t.Fatal(err)
	}
	var folded PersistentOutcome
	for _, cut := range [][2]int64{{0, 4}, {4, 7}, {7, 10}} {
		part, err := c.RunPersistentSlice(ctx, feeds, cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		folded.Sequences += part.Sequences
		folded.Inferences += part.Inferences
		folded.Detected += part.Detected
		folded.DetectionLatencies = append(folded.DetectionLatencies, part.DetectionLatencies...)
		folded.FirstSDCLatencies = append(folded.FirstSDCLatencies, part.FirstSDCLatencies...)
		folded.SDCsBeforeDetection += part.SDCsBeforeDetection
		folded.UndetectedSDC += part.UndetectedSDC
		folded.Repairs += part.Repairs
		folded.PostRepairOK += part.PostRepairOK
		folded.DUEs += part.DUEs
	}
	if !reflect.DeepEqual(full, folded) {
		t.Fatalf("sliced fold differs from full run:\n%+v\nvs\n%+v", folded, full)
	}
}

// With an always-firing detector every non-DUE sequence is caught at
// inference 1 and the scrub-from-golden repair must reproduce the clean
// reference byte-exactly — the core repair-correctness assertion.
func TestPersistentRepairRestoresGolden(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	for _, surface := range []Surface{WeightSurface{}} {
		c := &Campaign{
			Model: m, Trials: 10, Seed: 9, Surface: surface,
			SequenceLen: 6, Detector: &alwaysDetector{}, Repair: true,
		}
		out, err := c.RunPersistent(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		checkPersistentInvariants(t, out, 10)
		if out.Detected != 10 {
			t.Fatalf("always-detector caught %d of 10", out.Detected)
		}
		for _, l := range out.DetectionLatencies {
			if l != 1 {
				t.Fatalf("always-detector latency %d, want 1", l)
			}
		}
		if out.Repairs != 10 || out.PostRepairOK != 10 {
			t.Fatalf("repairs=%d postOK=%d, want 10/10 (scrub must restore golden bytes)", out.Repairs, out.PostRepairOK)
		}
	}
}

func TestPersistentInt8WeightSurface(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	calib := lenetCalibration(t, m, feeds)
	run := func(workers int) PersistentOutcome {
		c := &Campaign{
			Model: m, Trials: 10, Seed: 13, Surface: WeightSurface{},
			Scenario: BitFlips{Flips: 1}, Calibration: calib,
			SequenceLen: 4, Workers: workers,
			Detector: &alwaysDetector{}, Repair: true,
		}
		out, err := c.RunPersistent(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run(1)
	checkPersistentInvariants(t, out, 10)
	if out.Repairs != out.Detected || out.PostRepairOK != out.Repairs {
		t.Fatalf("int8 repair must restore golden: %+v", out)
	}
	if got := run(4); !reflect.DeepEqual(out, got) {
		t.Fatalf("int8 persistent outcome differs across workers:\n%+v\nvs\n%+v", got, out)
	}
}

// TestInt8StoredWeightFaultsReachConvOutput witnesses the int8
// stored-weight surface at the conv kernels: for every stored conv
// kernel of lenet and of alexnet (3x3 SAME convs), flipping the sign bit
// of the largest-|w| element of the materialized weight buffer must
// change the step's raw int8 output, and ClearOverrides must restore the
// golden bytes. The plan observes every node, so each conv is its own
// step. On alexnet the changed bytes must include a border column, whose
// pixels the int8 conv kernel computes one at a time (their windows are
// clipped by the padding), and an interior column, which it computes in
// pixel pairs. Dense kernels are left out: a dense weight fault is
// masked whenever the one input element it multiplies is zero.
func TestInt8StoredWeightFaultsReachConvOutput(t *testing.T) {
	for _, tc := range []struct {
		model   string
		ds      data.Dataset
		borders bool
	}{{"lenet", data.NewDigits(), false}, {"alexnet", data.NewObjects10(), true}} {
		m, err := models.Build(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		feeds := graph.Feeds{m.Input: tc.ds.Sample(data.Train, 0).X}
		calib, err := core.CalibrateModel(m, 1, func(int) (graph.Feeds, error) { return feeds, nil })
		if err != nil {
			t.Fatal(err)
		}
		plan, err := graph.CompileWith(m.Graph, graph.CompileOptions{ObserveAll: true}, m.Output)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := graph.Quantize(plan, calib)
		if err != nil {
			t.Fatal(err)
		}
		names, _, err := qp.StoredWeights()
		if err != nil {
			t.Fatal(err)
		}
		st := qp.NewState()
		shapes := map[string][]int{}
		outputs := func() map[string][]int8 {
			got := map[string][]int8{}
			hook := func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
				got[n.Name()] = append([]int8(nil), out.Data()...)
				shapes[n.Name()] = out.Shape()
				return nil
			}
			if _, err := qp.RunHook(st, feeds, hook); err != nil {
				t.Fatal(err)
			}
			return got
		}
		golden := outputs()
		convs := 0
		for _, name := range names {
			shape := shapes[name]
			if len(shape) != 4 {
				continue
			}
			convs++
			label := tc.model + "/" + name
			buf, err := qp.MaterializeWeights(st, name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outputs(), golden) {
				t.Fatalf("%s: freshly materialized weights changed the output", label)
			}
			big := 0
			for i, v := range buf {
				if abs8(v) > abs8(buf[big]) {
					big = i
				}
			}
			buf[big] ^= -128 // the sign bit
			faulty := outputs()[name]
			n, ow := shape[3], shape[2]
			border, interior := false, false
			for i, v := range faulty {
				if v != golden[name][i] {
					ox := i / n % ow
					border = border || ox == 0 || ox == ow-1
					interior = interior || (ox > 0 && ox < ow-1)
				}
			}
			switch {
			case !border && !interior:
				t.Fatalf("%s: flipping the sign bit of w[%d] = %d left the step output unchanged", label, big, buf[big]^-128)
			case tc.borders && !(border && interior):
				t.Fatalf("%s: weight fault changed border columns %t, interior columns %t; want both", label, border, interior)
			}
			st.ClearOverrides()
			if !reflect.DeepEqual(outputs(), golden) {
				t.Fatalf("%s: output differs from golden after ClearOverrides", label)
			}
		}
		if convs < 2 {
			t.Fatalf("%s: %d stored conv kernels, want at least 2", tc.model, convs)
		}
	}
}

func abs8(v int8) int { return max(int(v), -int(v)) }

// leakyScrub is an int8 stored-weight worker whose scrub leaves one
// corrupted byte behind: it drops the overrides as the real scrub does,
// then puts the kernel of node back with the sign bit of byte elem
// flipped.
type leakyScrub struct {
	*int8WeightWorker
	node string
	elem int
	t    *testing.T
}

func (w *leakyScrub) scrub() {
	w.int8WeightWorker.scrub()
	buf, err := w.b.qp.MaterializeWeights(w.st, w.node)
	if err != nil {
		w.t.Fatal(err)
	}
	buf[w.elem] ^= -128
}

// TestInt8PostRepairReplays pins the int8 post-repair check to a real
// replay. After a clean scrub the post-repair inference must be
// recomputed from the fault's depth, not handed back as the
// checkpoint's own reference (which made the check true by
// construction), and must equal the reference; after a scrub that
// leaves one corrupted byte of the struck kernel, PostRepairOK must be
// false.
func TestInt8PostRepairReplays(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	calib := lenetCalibration(t, m, feeds)
	c := &Campaign{
		Model: m, Trials: 1, Seed: 13, Surface: WeightSurface{},
		Scenario: BitFlips{Flips: 1}, Calibration: calib,
		SequenceLen: 4, TargetNodes: []string{"conv1"},
		Detector: &alwaysDetector{}, Repair: true,
	}
	b, err := c.newBackend(feeds)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := b.qp.MaterializeWeights(b.qp.NewState(), "conv1")
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for i, v := range golden {
		if abs8(v) > abs8(golden[big]) {
			big = i
		}
	}

	sw := b.newSlotWorker()
	w := sw.worker.(*int8WeightWorker)
	if _, err := w.plant([]Site{{Node: "conv1", Elem: big, Bit: 7}}); err != nil {
		t.Fatal(err)
	}
	w.scrub()
	post, err := w.infer(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := b.refs[0].Data()
	if &post[0] == &ref[0] {
		t.Fatal("post-repair output is the checkpoint's reference itself: nothing was replayed")
	}
	if !bitsEqual(post, ref) {
		t.Fatal("post-repair output after a clean scrub differs from the reference")
	}

	sw.worker = &leakyScrub{int8WeightWorker: w, node: "conv1", elem: big, t: t}
	r, err := b.runSequence(sw, slot{seq: 0, seed: sequenceSeed(c.Seed, 0), stratum: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Repaired || r.PostRepairOK {
		t.Fatalf("scrub leaving one corrupted byte: repaired %t, post-repair OK %t; want true, false", r.Repaired, r.PostRepairOK)
	}
}

func TestPersistentQuantParamSurface(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	calib := lenetCalibration(t, m, feeds)
	run := func(workers int) PersistentOutcome {
		c := &Campaign{
			Model: m, Trials: 12, Seed: 21, Surface: QuantParamSurface{},
			Scenario: BitFlips{Flips: 1}, Calibration: calib,
			SequenceLen: 3, Workers: workers,
		}
		out, err := c.RunPersistent(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run(1)
	checkPersistentInvariants(t, out, 12)
	// Every sequence either ran inferences or was a DUE.
	for _, got := range []PersistentOutcome{run(2)} {
		if !reflect.DeepEqual(out, got) {
			t.Fatalf("quantparam outcome differs across workers:\n%+v\nvs\n%+v", got, out)
		}
	}
	// A quant-param flip perturbs requantization directly; across 12
	// sequences on a scale/zero-point byte something must misbehave or
	// DUE (scale exponent/mantissa flips are large perturbations).
	if out.UndetectedSDC == 0 && out.DUEs == 0 && out.SDCsBeforeDetection == 0 {
		t.Log("note: no quantparam fault had observable effect (unusual but not invalid)")
	}
}

func TestPersistentBurstOnWeightSurface(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{
		Model: m, Trials: 8, Seed: 17, Surface: WeightSurface{},
		Scenario: Burst{Length: 4}, SequenceLen: 3,
	}
	out, err := c.RunPersistent(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	checkPersistentInvariants(t, out, 8)
}

func TestPersistentStratified(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{
		Model: m, Trials: 64, Seed: 23, Surface: WeightSurface{},
		SequenceLen: 2, Adaptive: AdaptiveStratified, CITarget: 0.2,
	}
	out, err := c.RunPersistent(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sequences == 0 || out.Sequences > 64 {
		t.Fatalf("stratified sequences = %d, want (0,64]", out.Sequences)
	}
	if len(out.Strata) == 0 {
		t.Fatal("stratified run reported no strata")
	}
	trials := 0
	for _, s := range out.Strata {
		if s.Surface != "weight" {
			t.Fatalf("stratum surface = %q, want weight", s.Surface)
		}
		trials += s.Trials
	}
	if int64(trials) != out.Sequences {
		t.Fatalf("stratum trials %d != sequences %d", trials, out.Sequences)
	}
	if out.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	// Determinism across workers for the stratified engine too.
	c2 := *c
	c2.Workers = 4
	out2, err := c2.RunPersistent(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, out2) {
		t.Fatalf("stratified persistent differs across workers:\n%+v\nvs\n%+v", out2, out)
	}
}

// FuzzWeightCorruptUndo pins the scrub contract: after any persistent
// weight sequence — corrupt, run, repair/clear — the plan's golden
// weights are bit-exactly untouched and a fresh clean replay reproduces
// the clean reference, on both the fp32 and int8 backends.
func FuzzWeightCorruptUndo(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(42), true)
	f.Add(int64(-7), false)
	f.Add(int64(12345), true)

	m, feeds := lenetInputsF(f, 1)
	calib := lenetCalibrationF(f, m, feeds)

	f.Fuzz(func(t *testing.T, seed int64, int8Backend bool) {
		c := &Campaign{
			Model: m, Trials: 2, Seed: seed, Surface: WeightSurface{},
			SequenceLen: 2, Workers: 1,
			Detector: &alwaysDetector{}, Repair: true,
		}
		if int8Backend {
			c.Scenario = BitFlips{Flips: 1}
			c.Calibration = calib
		}
		// Snapshot the golden fp32 weights the campaign must not touch.
		plan, err := c.compile()
		if err != nil {
			t.Fatal(err)
		}
		names, _ := plan.Weights()
		before := map[string][]float32{}
		for _, n := range names {
			before[n] = append([]float32(nil), plan.VarValue(n).Data()...)
		}
		out, err := c.RunPersistent(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		if out.Repairs != out.Detected || out.PostRepairOK != out.Repairs {
			t.Fatalf("repair did not restore golden bytes: %+v", out)
		}
		for _, n := range names {
			if !bitsEqual(before[n], plan.VarValue(n).Data()) {
				t.Fatalf("golden weight %q mutated by persistent campaign", n)
			}
		}
	})
}

// lenetInputsF is lenetInputs for fuzz harnesses.
func lenetInputsF(f *testing.F, n int) (*models.Model, []graph.Feeds) {
	f.Helper()
	m, err := models.Build("lenet")
	if err != nil {
		f.Fatal(err)
	}
	ds := data.NewDigits()
	feeds := make([]graph.Feeds, n)
	for i := range feeds {
		s := ds.Sample(data.Train, i)
		feeds[i] = graph.Feeds{m.Input: s.X}
	}
	return m, feeds
}

// lenetCalibrationF is lenetCalibration for fuzz harnesses.
func lenetCalibrationF(f *testing.F, m *models.Model, feeds []graph.Feeds) graph.Calibration {
	f.Helper()
	calib, err := core.CalibrateModel(m, len(feeds), func(i int) (graph.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		f.Fatal(err)
	}
	return calib
}
