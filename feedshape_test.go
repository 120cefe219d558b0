// ErrFeedShape must surface on every entry point that accepts feeds —
// the per-call executor (Run and RunAll), compiled plans, the quantized
// plan, batch evaluation, the compiled-model facade, and every campaign
// entry point on both backends — so the up-front validation cannot
// regress on one path while holding on another.
package ranger_test

import (
	"context"
	"errors"
	"testing"

	"ranger"
	"ranger/internal/core"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

// badFeeds returns lenet feeds whose input tensor contradicts the
// placeholder's declared (0, 28, 28, 1) shape.
func badFeedModel(t *testing.T) (*models.Model, graph.Feeds, graph.Feeds) {
	t.Helper()
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	good := graph.Feeds{m.Input: tensor.New(1, 28, 28, 1)}
	bad := graph.Feeds{m.Input: tensor.New(1, 27, 27, 1)}
	return m, good, bad
}

func wantFeedShape(t *testing.T, entry string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted a mis-shaped feed", entry)
	}
	if !errors.Is(err, graph.ErrFeedShape) {
		t.Fatalf("%s: error %v does not wrap ErrFeedShape", entry, err)
	}
}

func TestErrFeedShapeOnEveryEntryPoint(t *testing.T) {
	m, good, bad := badFeedModel(t)

	var e graph.Executor
	_, err := e.Run(m.Graph, bad, m.Output)
	wantFeedShape(t, "Executor.Run", err)
	_, err = e.RunAll(m.Graph, bad)
	wantFeedShape(t, "Executor.RunAll", err)

	plan, err := graph.Compile(m.Graph, m.Output)
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Run(plan.NewState(), bad)
	wantFeedShape(t, "Plan.Run", err)
	_, err = plan.InferredShapes(bad)
	wantFeedShape(t, "Plan.InferredShapes", err)

	_, err = graph.RunBatch(m.Graph, []graph.Feeds{good, bad}, 0, m.Output)
	wantFeedShape(t, "graph.RunBatch", err)

	cm, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	_, err = cm.Run(bad)
	wantFeedShape(t, "Compiled.Run", err)
	_, err = cm.RunBatch([]graph.Feeds{good, bad}, 2)
	wantFeedShape(t, "Compiled.RunBatch", err)

	// Campaigns validate feeds before sampling a single fault: the fault
	// space is sized from the campaign plan's layout signature.
	ctx := context.Background()
	c := &ranger.Campaign{Model: m, Trials: 3, Seed: 1}
	_, err = c.Run(ctx, []graph.Feeds{bad})
	wantFeedShape(t, "Campaign.Run", err)
	_, err = c.RunSlice(ctx, []graph.Feeds{good, bad}, 0, 6)
	wantFeedShape(t, "Campaign.RunSlice", err)
	dc := &ranger.Campaign{Model: m, Trials: 3, Seed: 1, Detector: neverDetector{}}
	_, err = dc.RunWithDetector(ctx, []graph.Feeds{bad})
	wantFeedShape(t, "Campaign.RunWithDetector", err)
	ac := &ranger.Campaign{Model: m, Trials: 3, Seed: 1, Adaptive: ranger.AdaptiveStratified}
	_, err = ac.RunAdaptive(ctx, []graph.Feeds{bad})
	wantFeedShape(t, "Campaign.RunAdaptive", err)
	// A missing feed is typed too.
	_, err = c.Run(ctx, []graph.Feeds{{}})
	if !errors.Is(err, graph.ErrMissingFeed) {
		t.Fatalf("Campaign.Run with no feeds: error %v does not wrap ErrMissingFeed", err)
	}

	// The quantized plan validates through the same layout signature.
	calib, err := core.CalibrateModel(m, 1, func(int) (graph.Feeds, error) { return good, nil })
	if err != nil {
		t.Fatal(err)
	}
	qm, err := m.Quantize(calib)
	if err != nil {
		t.Fatal(err)
	}
	_, err = qm.Run(bad)
	wantFeedShape(t, "Quantized.Run", err)
	_, err = qm.RunBatch([]graph.Feeds{good, bad}, 2)
	wantFeedShape(t, "Quantized.RunBatch", err)

	qc := &ranger.Campaign{Model: m, Trials: 3, Seed: 1, Calibration: calib, Scenario: ranger.BitFlipInt8{Flips: 1}}
	_, err = qc.Run(ctx, []graph.Feeds{bad})
	wantFeedShape(t, "quantized Campaign.Run", err)
	qac := &ranger.Campaign{Model: m, Trials: 3, Seed: 1, Calibration: calib, Scenario: ranger.BitFlipInt8{Flips: 1}, Adaptive: ranger.AdaptiveStratified}
	_, err = qac.RunAdaptive(ctx, []graph.Feeds{bad})
	wantFeedShape(t, "quantized Campaign.RunAdaptive", err)
}

// neverDetector is a detector that observes nothing and never fires.
type neverDetector struct{}

func (neverDetector) Name() string                        { return "never" }
func (neverDetector) Reset()                              {}
func (neverDetector) Observe(*graph.Node, *tensor.Tensor) {}
func (neverDetector) Detected() bool                      { return false }

// TestErrFeedShapeOnBatchedFeeds is the batched twin: a feed carrying
// a leading batch axis B > 1 is valid on every plan entry point
// (placeholders declare the batch dimension as 0, "any"), but batched
// feeds that contradict the declared sample shape must still surface
// ErrFeedShape.
func TestErrFeedShapeOnBatchedFeeds(t *testing.T) {
	m, good, _ := badFeedModel(t)
	batchedGood := graph.Feeds{m.Input: tensor.New(3, 28, 28, 1)}
	batchedBad := graph.Feeds{m.Input: tensor.New(3, 27, 27, 1)}

	plan, err := graph.Compile(m.Graph, m.Output)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.NewState()
	outs, err := plan.Run(st, batchedGood)
	if err != nil {
		t.Fatalf("Plan.Run rejected well-shaped batched feeds: %v", err)
	}
	if outs[0].Dim(0) != 3 {
		t.Fatalf("Plan.Run batched fetch has leading dim %d, want 3", outs[0].Dim(0))
	}
	_, err = plan.Run(st, batchedBad)
	wantFeedShape(t, "Plan.Run (batched)", err)

	_, err = graph.RunBatch(m.Graph, []graph.Feeds{good, batchedBad}, 0, m.Output)
	wantFeedShape(t, "graph.RunBatch (batched)", err)

	calib, err := core.CalibrateModel(m, 1, func(int) (graph.Feeds, error) { return good, nil })
	if err != nil {
		t.Fatal(err)
	}
	qm, err := m.Quantize(calib)
	if err != nil {
		t.Fatal(err)
	}
	qouts, err := qm.Run(batchedGood)
	if err != nil {
		t.Fatalf("Quantized.Run rejected well-shaped batched feeds: %v", err)
	}
	if qouts.Dim(0) != 3 {
		t.Fatalf("Quantized.Run batched fetch has leading dim %d, want 3", qouts.Dim(0))
	}
	_, err = qm.Run(batchedBad)
	wantFeedShape(t, "Quantized.Run (batched)", err)
}
