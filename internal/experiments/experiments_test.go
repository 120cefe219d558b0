package experiments

import (
	"context"
	"strings"
	"testing"

	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/train"
)

// testRunner returns a runner with a tiny campaign configuration; models
// come from the default zoo (trained once, cached on disk).
func testRunner(t *testing.T) *Runner {
	t.Helper()
	return NewRunner(Config{
		Trials:         20,
		Inputs:         2,
		ProfileSamples: 120,
		EvalSamples:    60,
		Seed:           99,
		Zoo:            train.Default(),
	})
}

func TestSelectInputsClassifier(t *testing.T) {
	m, err := train.Default().Get("lenet")
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := train.DatasetByName(m.Dataset)
	feeds, err := SelectInputs(m, ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != 3 {
		t.Fatalf("got %d inputs", len(feeds))
	}
	if _, ok := feeds[0][m.Input]; !ok {
		t.Fatal("feeds missing input placeholder")
	}
}

func TestSelectInputsTooMany(t *testing.T) {
	m, err := train.Default().Get("lenet")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDigits()
	ds.ValLen = 5
	if _, err := SelectInputs(m, ds, 10_000); err == nil {
		t.Fatal("want not-enough-inputs error")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := testRunner(t)
	b1, err := r.Bounds("lenet")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := r.Bounds("lenet")
	if len(b1) == 0 || len(b1) != len(b2) {
		t.Fatalf("bounds caching broken: %d vs %d", len(b1), len(b2))
	}
	p1, err := r.Protected("lenet")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := r.Protected("lenet")
	if p1 != p2 {
		t.Fatal("protected model not cached")
	}
	i1, err := r.Inputs("lenet")
	if err != nil {
		t.Fatal(err)
	}
	if len(i1) != r.Config().Inputs {
		t.Fatalf("inputs = %d", len(i1))
	}
}

func TestFig4Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := testRunner(t)
	res, err := Fig4(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 15 { // VGG16: 13 conv + 2 FC ReLUs
		t.Fatalf("layers = %d", len(res.Layers))
	}
	last := res.Series[len(res.Series)-1]
	for j, v := range last {
		if v != 1 {
			t.Fatalf("layer %d final normalized max = %v, want 1", j, v)
		}
	}
	// Normalized running max never exceeds 1 and is monotone over time.
	for i := range res.Series {
		for j, v := range res.Series[i] {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("series[%d][%d] = %v", i, j, v)
			}
			if i > 0 && v+1e-9 < res.Series[i-1][j] {
				t.Fatalf("running max decreased at [%d][%d]", i, j)
			}
		}
	}
	if !strings.Contains(res.Render(), "Fig 4") {
		t.Fatal("render")
	}
}

func TestFig6ShapeOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := testRunner(t)
	rows, err := classifierSDC(context.Background(), r, "lenet", fixpoint.Q32, inject.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Metric != "top-1" {
		t.Fatalf("rows = %+v", rows)
	}
	// The paper's core claim: Ranger must not increase the SDC rate.
	if rows[0].WithRanger.Rate > rows[0].Original.Rate {
		t.Fatalf("ranger SDC %v > original %v", rows[0].WithRanger.Rate, rows[0].Original.Rate)
	}
}

func TestSteeringSDCShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := testRunner(t)
	rows, err := steeringSDC(context.Background(), r, "comma", fixpoint.Q32, inject.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SteeringThresholds) {
		t.Fatalf("rows = %d", len(rows))
	}
	// SDC rate is monotone non-increasing in the threshold.
	for i := 1; i < len(rows); i++ {
		if rows[i].Original.Rate > rows[i-1].Original.Rate+1e-9 {
			t.Fatalf("original rates not monotone: %+v", rows)
		}
	}
}

func TestTable2NoAccuracyLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := testRunner(t)
	res, err := Table2(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range res.Rows {
		m, _ := r.Model(row.Model)
		if m.Kind == models.Classifier {
			// Accuracy must not degrade (paper Table II).
			if row.WithRanger < row.Original-1e-9 {
				t.Fatalf("%s %s: accuracy dropped %v -> %v", row.Model, row.Metric, row.Original, row.WithRanger)
			}
		} else {
			// Error metrics must not increase beyond the paper's own
			// caveat margin: rare natural values on unseen data can exceed
			// profiled bounds, but truncating them is tolerated (§III-B);
			// allow up to 1% relative drift.
			if row.WithRanger > row.Original*1.01+1e-6 {
				t.Fatalf("%s %s: error rose %v -> %v", row.Model, row.Metric, row.Original, row.WithRanger)
			}
		}
	}
}

func TestTable3InsertionTimes(t *testing.T) {
	r := testRunner(t)
	res, err := Table3(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(models.Names()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Protected <= 0 || row.Time <= 0 {
			t.Fatalf("%s: protected=%d time=%v", row.Model, row.Protected, row.Time)
		}
	}
}

func TestTable4OverheadSmall(t *testing.T) {
	r := testRunner(t)
	res, err := Table4(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Overhead <= 0 {
			t.Fatalf("%s overhead = %v, want > 0", row.Model, row.Overhead)
		}
		// Paper Table IV: Ranger costs ~0.1-1.6%; our scaled models give
		// it a little more headroom but it must stay small.
		if row.Overhead > 0.06 {
			t.Fatalf("%s overhead = %.2f%%, want < 6%%", row.Model, row.Overhead*100)
		}
	}
}

func TestAlternativesZeroPolicyHurtsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := testRunner(t)
	res, err := Alternatives(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 4 {
		t.Fatalf("policies = %v", res.Policies)
	}
	// clip (index 1) must preserve accuracy relative to unprotected (0).
	if res.Accuracy[1] < res.Accuracy[0]-1e-9 {
		t.Fatalf("clip policy lost accuracy: %v -> %v", res.Accuracy[0], res.Accuracy[1])
	}
	if !strings.Contains(res.Render(), "policy") {
		t.Fatal("render")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	// Smoke-test every Render with synthetic results (no campaigns).
	sdc := SDCRow{Model: "m", Metric: "top-1"}
	f6 := &Fig6Result{Rows: []SDCRow{sdc}}
	f7 := &Fig7Result{Rows: []SDCRow{sdc}}
	f8 := &Fig8Result{Rows: []Fig8Row{{Model: "m"}}}
	f9 := &Fig9Result{Rows: []SDCRow{sdc}}
	mb := &MultiBitResult{Title: "t", Rows: []MultiBitRow{{Model: "m", Bits: 2}}}
	for _, r := range []interface{ Render() string }{f6, f7, f8, f9, mb} {
		if r.Render() == "" {
			t.Fatal("empty render")
		}
	}
}
