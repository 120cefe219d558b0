package baselines

import (
	"context"
	"math/rand"
	"testing"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

func lenetWithInputs(t *testing.T, n int) (*models.Model, []graph.Feeds) {
	t.Helper()
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDigits()
	feeds := make([]graph.Feeds, n)
	for i := range feeds {
		feeds[i] = graph.Feeds{m.Input: ds.Sample(data.Train, i).X}
	}
	return m, feeds
}

func profiledMaxima(t *testing.T, m *models.Model, feeds []graph.Feeds) map[string]float64 {
	t.Helper()
	p := core.NewProfiler(m.Graph, core.ProfileOptions{})
	for _, f := range feeds {
		if err := p.Observe(f, m.Output); err != nil {
			t.Fatal(err)
		}
	}
	maxima := make(map[string]float64)
	for act, b := range p.Bounds() {
		maxima[act] = b.High
	}
	return maxima
}

func TestTMRVote(t *testing.T) {
	a := tensor.MustFromSlice([]float32{1, 2, 3}, 3)
	b := tensor.MustFromSlice([]float32{1, 99, 3}, 3) // faulty replica
	c := tensor.MustFromSlice([]float32{1, 2, 3}, 3)
	out, err := TMRVote(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("vote = %v", out.Data())
		}
	}
	if _, err := TMRVote(a, b, tensor.New(2)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestTMRVoteAllDistinctTakesMedian(t *testing.T) {
	a := tensor.MustFromSlice([]float32{5}, 1)
	b := tensor.MustFromSlice([]float32{1}, 1)
	c := tensor.MustFromSlice([]float32{3}, 1)
	out, err := TMRVote(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 3 {
		t.Fatalf("median = %v", out.Data()[0])
	}
}

// TMR under the single-fault model always restores the clean output: vote
// over one faulty and two clean replicas.
func TestTMRCorrectsSingleFaultReplica(t *testing.T) {
	m, feeds := lenetWithInputs(t, 1)
	var e graph.Executor
	clean, err := e.Run(m.Graph, feeds[0], m.Output)
	if err != nil {
		t.Fatal(err)
	}
	faultExec := graph.Executor{Hook: func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		if n.Name() == "conv1" {
			r := out.Clone()
			r.Data()[0] = 1e8
			return r
		}
		return nil
	}}
	faulty, err := faultExec.Run(m.Graph, feeds[0], m.Output)
	if err != nil {
		t.Fatal(err)
	}
	voted, err := TMRVote(clean[0], faulty[0], clean[0].Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range voted.Data() {
		if voted.Data()[i] != clean[0].Data()[i] {
			t.Fatal("TMR failed to restore clean output")
		}
	}
}

func TestSymptomDetectorFlagsSpikes(t *testing.T) {
	m, feeds := lenetWithInputs(t, 3)
	maxima := profiledMaxima(t, m, feeds)
	det := NewSymptomDetector(maxima, 1.0)
	c := &inject.Campaign{Model: m, Trials: 80, Seed: 4, Detector: det}
	out, err := c.RunWithDetector(context.Background(), feeds[:1])
	if err != nil {
		t.Fatal(err)
	}
	// The profiled inputs include feeds[0], so the clean run must not trip
	// the threshold.
	if out.FalsePositives != 0 {
		t.Fatalf("false positives = %d", out.FalsePositives)
	}
	if out.DetectedFaulty == 0 {
		t.Fatal("symptom detector never fired on faulty runs")
	}
	if out.UncorrectedSDC > out.Top1SDC {
		t.Fatal("uncorrected exceeds total SDCs")
	}
}

func TestDuplicationDetectorCatchesFaultAtDuplicatedNode(t *testing.T) {
	m, feeds := lenetWithInputs(t, 1)
	det := NewDuplicationDetector([]string{"conv1"})
	c := &inject.Campaign{
		Model:       m,
		Trials:      30,
		Seed:        5,
		TargetNodes: []string{"conv1"},
		Detector:    det,
	}
	out, err := c.RunWithDetector(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.FalsePositives != 0 {
		t.Fatalf("false positives = %d", out.FalsePositives)
	}
	// Every fault was injected at the duplicated node; recomputation must
	// catch all of them.
	if out.DetectedFaulty != out.Trials {
		t.Fatalf("detected %d/%d faults at duplicated node", out.DetectedFaulty, out.Trials)
	}
}

func TestDuplicationDetectorMissesOtherNodes(t *testing.T) {
	m, feeds := lenetWithInputs(t, 1)
	det := NewDuplicationDetector([]string{"conv1"})
	c := &inject.Campaign{
		Model:       m,
		Trials:      30,
		Seed:        6,
		TargetNodes: []string{"act9"}, // fc activation far from conv1
		Detector:    det,
	}
	out, err := c.RunWithDetector(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.DetectedFaulty != 0 {
		t.Fatalf("duplication of conv1 should not see act3 faults; detected %d", out.DetectedFaulty)
	}
}

func TestABFTDetectorCatchesConvFaults(t *testing.T) {
	m, feeds := lenetWithInputs(t, 1)
	det := NewABFTDetector(1e-3)
	c := &inject.Campaign{
		Model:       m,
		Trials:      40,
		Seed:        7,
		TargetNodes: []string{"conv1", "conv2"},
		Detector:    det,
	}
	out, err := c.RunWithDetector(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.FalsePositives != 0 {
		t.Fatalf("false positives = %d", out.FalsePositives)
	}
	// Most conv-output flips are detectable; low-order fractional-bit
	// flips can hide inside the tolerance.
	if float64(out.DetectedFaulty) < 0.5*float64(out.Trials) {
		t.Fatalf("ABFT detected only %d/%d conv faults", out.DetectedFaulty, out.Trials)
	}
}

func TestABFTDetectorIgnoresNonConvFaults(t *testing.T) {
	m, feeds := lenetWithInputs(t, 1)
	det := NewABFTDetector(1e-3)
	c := &inject.Campaign{
		Model:       m,
		Trials:      30,
		Seed:        8,
		TargetNodes: []string{"act9"},
		Detector:    det,
	}
	out, err := c.RunWithDetector(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.DetectedFaulty != 0 {
		t.Fatalf("ABFT flagged %d non-conv faults", out.DetectedFaulty)
	}
}

func TestMLDetectorTrainsAndDetects(t *testing.T) {
	m, feeds := lenetWithInputs(t, 2)
	maxima := profiledMaxima(t, m, feeds)
	det, err := TrainMLDetector(context.Background(), m, feeds, maxima, fixpoint.Q32, inject.DefaultScenario(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Weights) != len(det.Layers) || len(det.Layers) == 0 {
		t.Fatalf("detector shape: %d layers, %d weights", len(det.Layers), len(det.Weights))
	}
	c := &inject.Campaign{Model: m, Trials: 60, Seed: 10, Detector: det}
	out, err := c.RunWithDetector(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	// The learned detector must beat doing nothing: catch some SDCs.
	if out.Top1SDC > 0 && out.UncorrectedSDC == out.Top1SDC {
		t.Fatalf("ML detector caught 0 of %d SDCs", out.Top1SDC)
	}
}

func TestSelectDuplicationSetRespectsBudget(t *testing.T) {
	m, feeds := lenetWithInputs(t, 1)
	set, overhead, err := SelectDuplicationSet(context.Background(), m, feeds[0], fixpoint.Q32, inject.DefaultScenario(), 6, 11, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("empty duplication set")
	}
	if overhead > 0.3+1e-9 {
		t.Fatalf("overhead %v exceeds budget", overhead)
	}
	if _, _, err := SelectDuplicationSet(context.Background(), m, feeds[0], fixpoint.Q32, inject.DefaultScenario(), 6, 11, 0); err == nil {
		t.Fatal("want budget error")
	}
}

func TestMedian3(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		a, b, c := rng.Float32(), rng.Float32(), rng.Float32()
		m := median3(a, b, c)
		// The median is >= min and <= max and equals one of the inputs.
		lo, hi := a, a
		if b < lo {
			lo = b
		}
		if c < lo {
			lo = c
		}
		if b > hi {
			hi = b
		}
		if c > hi {
			hi = c
		}
		if m < lo || m > hi || (m != a && m != b && m != c) {
			t.Fatalf("median3(%v,%v,%v) = %v", a, b, c, m)
		}
	}
}
