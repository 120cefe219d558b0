package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

// TrainMLDetector builds the Schorn-style learned detector by running a
// labelled fault-injection campaign and fitting a logistic regression on
// per-layer activation-ratio features. This mirrors the technique's real
// cost structure: it needs FI-generated training data before deployment
// (the paper's critique in §VII). format and scen configure the training
// campaign (zero values mean Q32, single bit flip); cancelling ctx
// aborts it.
func TrainMLDetector(
	ctx context.Context,
	m *models.Model,
	inputs []graph.Feeds,
	profiledMax map[string]float64,
	format fixpoint.Format,
	scen inject.Scenario,
	trialsPerInput int,
	seed int64,
) (*MLDetector, error) {
	var layers []string
	for _, n := range m.Graph.Nodes() {
		if _, ok := profiledMax[n.Name()]; ok {
			layers = append(layers, n.Name())
		}
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("baselines: no profiled layers")
	}
	det := &MLDetector{
		Layers:      layers,
		ProfiledMax: profiledMax,
		Weights:     make([]float64, len(layers)),
		Threshold:   0.5,
	}
	collector := &featureCollector{det: det}
	c := &inject.Campaign{Model: m, Format: format, Scenario: scen, Trials: trialsPerInput, Seed: seed, Detector: collector}
	out, err := c.RunWithDetector(ctx, inputs)
	if err != nil {
		return nil, err
	}
	// Execution order per input: one clean run (label benign) followed by
	// trialsPerInput faulty runs labelled by TrialSDC.
	runsPerInput := trialsPerInput + 1
	if len(collector.features) != len(inputs)*runsPerInput {
		return nil, fmt.Errorf("baselines: collected %d feature vectors, want %d",
			len(collector.features), len(inputs)*runsPerInput)
	}
	labels := make([]float64, len(collector.features))
	trialIdx := 0
	for run := range collector.features {
		if run%runsPerInput == 0 {
			labels[run] = 0 // clean execution
			continue
		}
		if out.TrialSDC[trialIdx] {
			labels[run] = 1
		}
		trialIdx++
	}
	fitLogistic(det, collector.features, labels, seed+1)
	return det, nil
}

// fitLogistic runs plain SGD logistic regression. Features are clamped to
// [0, 10] so fault-driven ratios (potentially 1e6) keep the loss
// well-conditioned.
func fitLogistic(det *MLDetector, feats [][]float64, labels []float64, seed int64) {
	for _, f := range feats {
		for i, v := range f {
			if v > 10 {
				f[i] = 10
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const lr = 0.3
	for epoch := 0; epoch < 150; epoch++ {
		for _, idx := range rng.Perm(len(feats)) {
			f := feats[idx]
			z := det.Bias
			for i := range f {
				z += det.Weights[i] * f[i]
			}
			p := 1 / (1 + math.Exp(-z))
			g := p - labels[idx]
			det.Bias -= lr * g
			for i := range f {
				det.Weights[i] -= lr * g * f[i]
			}
		}
	}
}

// featureCollector rides inside RunWithDetector to harvest one feature
// vector per execution. It snapshots the features when Detected is called
// (the end of each run) and always reports "not detected" so the
// campaign's recovery accounting is untouched.
type featureCollector struct {
	det      *MLDetector
	features [][]float64
}

// Name implements inject.Detector.
func (f *featureCollector) Name() string { return "ml-feature-collector" }

// Reset implements inject.Detector.
func (f *featureCollector) Reset() { f.det.Reset() }

// Observe implements inject.Detector.
func (f *featureCollector) Observe(n *graph.Node, out *tensor.Tensor) { f.det.Observe(n, out) }

// Detected implements inject.Detector.
func (f *featureCollector) Detected() bool {
	f.features = append(f.features, f.det.features())
	return false
}
