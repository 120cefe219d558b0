// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment from
// internal/experiments and reports its headline numbers as custom
// metrics, so `go test -bench` output doubles as a compact results
// table. Campaign sizes follow RANGER_TRIALS / RANGER_INPUTS (defaults
// are small so the full suite completes in minutes on one core; the
// paper-scale equivalent is RANGER_TRIALS=3000 RANGER_INPUTS=10).
package ranger_test

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/experiments"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/ops"
	"ranger/internal/stats"
	"ranger/internal/tensor"
	"ranger/internal/train"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// benchRunner returns the shared experiment runner with a bench-scale
// configuration (override with RANGER_TRIALS / RANGER_INPUTS).
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		// Same parsed-and-positive condition DefaultConfig honors, so an
		// unset (or ignored) RANGER_TRIALS falls back to the bench default.
		if v, err := strconv.Atoi(os.Getenv("RANGER_TRIALS")); err != nil || v <= 0 {
			cfg.Trials = 60
		}
		runner = experiments.NewRunner(cfg)
	})
	return runner
}

// skipIfShort gates the campaign-scale experiment benchmarks so that
// `go test -short -bench . ./...` finishes quickly; the substrate
// micro-benchmarks below stay available in short mode.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping experiment benchmark in -short mode")
	}
}

func avgRates(rows []experiments.SDCRow) (orig, withRanger float64) {
	for _, row := range rows {
		orig += row.Original.Rate
		withRanger += row.WithRanger.Rate
	}
	n := float64(len(rows))
	return orig / n, withRanger / n
}

// BenchmarkFig4RangeConvergence regenerates Fig. 4 (VGG16 bound
// convergence over training-data fractions).
func BenchmarkFig4RangeConvergence(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		// Normalized mean bound after 20% of the budget (convergence
		// indicator; 1.0 = fully converged).
		idx := len(res.Series) / 5
		var mean float64
		for _, v := range res.Series[idx] {
			mean += v
		}
		b.ReportMetric(mean/float64(len(res.Series[idx])), "bound_conv_at_20pct")
	}
}

// BenchmarkFig6ClassifierSDC regenerates Fig. 6 (classifier SDC rates).
func BenchmarkFig6ClassifierSDC(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		orig, prot := avgRates(res.Rows)
		b.ReportMetric(orig*100, "orig_sdc_pct")
		b.ReportMetric(prot*100, "ranger_sdc_pct")
		b.ReportMetric(stats.ReductionFactor(orig, prot), "reduction_x")
	}
}

// BenchmarkFig7SteeringSDC regenerates Fig. 7 (steering-model SDC rates
// at the 15/30/60/120-degree thresholds).
func BenchmarkFig7SteeringSDC(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		orig, prot := avgRates(res.Rows)
		b.ReportMetric(orig*100, "orig_sdc_pct")
		b.ReportMetric(prot*100, "ranger_sdc_pct")
	}
}

// BenchmarkFig8HongComparison regenerates Fig. 8 (relative SDC reduction
// vs the Hong et al. Tanh-swap defense).
func BenchmarkFig8HongComparison(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		var hong, rangerRed float64
		for _, row := range res.Rows {
			hong += row.ReluHong
			rangerRed += row.ReluRanger
		}
		n := float64(len(res.Rows))
		b.ReportMetric(hong/n*100, "hong_reduction_pct")
		b.ReportMetric(rangerRed/n*100, "ranger_reduction_pct")
	}
}

// BenchmarkFig9ReducedPrecision regenerates Fig. 9 (16-bit datatype).
func BenchmarkFig9ReducedPrecision(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		orig, prot := avgRates(res.Rows)
		b.ReportMetric(orig*100, "orig_sdc_pct")
		b.ReportMetric(prot*100, "ranger_sdc_pct")
	}
}

// BenchmarkFig10BoundTradeoff regenerates Fig. 10 (bound percentiles on
// the Dave-degrees model).
func BenchmarkFig10BoundTradeoff(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		// SDC at threshold 15 for the tightest and loosest bounds.
		b.ReportMetric(res.Protected[0][0].Rate*100, "sdc15_bound100_pct")
		b.ReportMetric(res.Protected[len(res.Protected)-1][0].Rate*100, "sdc15_bound98_pct")
	}
}

// BenchmarkFig11MultiBitClassifier regenerates Fig. 11 (2-5 bit flips on
// the classifiers).
func BenchmarkFig11MultiBitClassifier(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		var orig, prot float64
		for _, row := range res.Rows {
			orig += row.Original.Rate
			prot += row.WithRanger.Rate
		}
		n := float64(len(res.Rows))
		b.ReportMetric(orig/n*100, "orig_sdc_pct")
		b.ReportMetric(prot/n*100, "ranger_sdc_pct")
	}
}

// BenchmarkFig12MultiBitSteering regenerates Fig. 12 (2-5 bit flips on
// the steering models).
func BenchmarkFig12MultiBitSteering(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		var orig, prot float64
		for _, row := range res.Rows {
			orig += row.Original.Rate
			prot += row.WithRanger.Rate
		}
		n := float64(len(res.Rows))
		b.ReportMetric(orig/n*100, "orig_sdc_pct")
		b.ReportMetric(prot/n*100, "ranger_sdc_pct")
	}
}

// BenchmarkTable2Accuracy regenerates Table II (fault-free accuracy).
func BenchmarkTable2Accuracy(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		var maxDrop float64
		for _, row := range res.Rows {
			if d := row.Original - row.WithRanger; d > maxDrop {
				maxDrop = d
			}
		}
		b.ReportMetric(maxDrop, "max_accuracy_drop")
	}
}

// BenchmarkTable3InsertionTime regenerates Table III (transform time).
func BenchmarkTable3InsertionTime(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		var total time.Duration
		for _, row := range res.Rows {
			total += row.Time
		}
		b.ReportMetric(float64(total.Microseconds())/float64(len(res.Rows)), "avg_insert_us")
	}
}

// BenchmarkTable4FLOPs regenerates Table IV (FLOP overhead).
func BenchmarkTable4FLOPs(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range res.Rows {
			sum += row.Overhead
		}
		b.ReportMetric(sum/float64(len(res.Rows))*100, "avg_overhead_pct")
	}
}

// BenchmarkTable5BoundAccuracy regenerates Table V (accuracy vs bound
// percentile on Dave-degrees).
func BenchmarkTable5BoundAccuracy(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RMSE[0], "rmse_original")
		b.ReportMetric(res.RMSE[len(res.RMSE)-1], "rmse_bound98")
	}
}

// BenchmarkTable6Comparison regenerates Table VI (technique comparison).
func BenchmarkTable6Comparison(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Technique == "Ranger" {
				b.ReportMetric(row.Coverage*100, "ranger_coverage_pct")
				b.ReportMetric(row.Overhead*100, "ranger_overhead_pct")
			}
		}
	}
}

// BenchmarkDesignAlternatives regenerates the §VI-C policy study.
func BenchmarkDesignAlternatives(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Alternatives(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy[1], "acc_clip")
		b.ReportMetric(res.Accuracy[2], "acc_zero")
	}
}

// BenchmarkAblationACTOnly measures the DESIGN.md ablation: protecting
// only ACT layers vs Algorithm 1's full downstream extension (the
// paper's §III-C MaxPool amplification argument).
func BenchmarkAblationACTOnly(b *testing.B) {
	skipIfShort(b)
	r := benchRunner(b)
	m, err := r.Model("lenet")
	if err != nil {
		b.Fatal(err)
	}
	bounds, err := r.Bounds("lenet")
	if err != nil {
		b.Fatal(err)
	}
	feeds, err := r.Inputs("lenet")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, actOnly := range []bool{false, true} {
			pm, _, err := core.ProtectModel(m, bounds, core.Options{ACTOnly: actOnly})
			if err != nil {
				b.Fatal(err)
			}
			c := &inject.Campaign{
				Model:  pm,
				Trials: r.Config().Trials,
				Seed:   r.Config().Seed,
			}
			out, err := c.Run(context.Background(), feeds)
			if err != nil {
				b.Fatal(err)
			}
			if actOnly {
				b.ReportMetric(out.Top1Rate()*100, "sdc_actonly_pct")
			} else {
				b.ReportMetric(out.Top1Rate()*100, "sdc_full_pct")
			}
		}
	}
}

// BenchmarkCampaignTrialThroughput measures the fault-campaign trial
// hot path — the workload behind every SDC table in the paper — on an
// untrained lenet (campaign mechanics only, so it runs in the -short CI
// smoke) with a late-layer fault space. Reported metrics: trials/s and
// allocs/trial (averaged over whole campaign runs, so it includes the
// per-campaign compile/checkpoint setup; the strict steady-state gate
// is TestIncrementalTrialZeroAlloc in internal/inject).
func BenchmarkCampaignTrialThroughput(b *testing.B) {
	m, err := models.Build("lenet")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	feeds := []graph.Feeds{{m.Input: ds.Sample(data.Train, 0).X}}
	// Late-layer fault space: the last few corruptible operator outputs.
	corruptible := inject.CorruptibleNodes(m, nil, nil)
	late := corruptible[len(corruptible)-3:]
	trials := 256
	if testing.Short() {
		trials = 64
	}
	b.Run("incremental", func(b *testing.B) {
		c := &inject.Campaign{Model: m, Trials: trials, Seed: 42, TargetNodes: late}
		// Warm once so plan compilation and state growth do not
		// count toward the measured per-trial costs.
		if _, err := c.Run(context.Background(), feeds); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(context.Background(), feeds); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		total := float64(b.N) * float64(trials)
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(total/sec, "trials/s")
		}
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/trial")
	})
}

// Micro-benchmarks for the substrate hot paths.

func BenchmarkMatMul64(b *testing.B) {
	a := tensor.New(64, 64)
	a.Fill(0.5)
	c := tensor.New(64, 64)
	c.Fill(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.MatMul(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvalInto times a planned op's EvalInto, the kernel every plan
// step runs: over the whole output ("whole", full and suffix replay) and
// over a 3x3-pixel window of it ("window", what cone replay recomputes
// around a struck pixel).
func benchEvalInto(b *testing.B, op graph.PlannedOp, ins []*tensor.Tensor, out *tensor.Tensor) {
	_, h, w, _ := graph.Pixels(out)
	for _, wc := range []struct {
		name string
		win  graph.Window
	}{
		{"whole", graph.Window{Y1: h, X1: w}},
		{"window", graph.Window{Y0: h / 2, Y1: h/2 + 3, X0: w / 2, X1: w/2 + 3}},
	} {
		b.Run(wc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op.EvalInto(ins, out, wc.win); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	x := tensor.New(1, 32, 32, 8)
	x.Fill(0.5)
	w := tensor.New(3, 3, 8, 16)
	w.Fill(0.1)
	op := &ops.Conv2DOp{Geom: tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PadH: 1, PadW: 1}}
	benchEvalInto(b, op, []*tensor.Tensor{x, w}, tensor.New(1, 32, 32, 16))
}

func BenchmarkClipOp(b *testing.B) {
	x := tensor.New(1, 32, 32, 16)
	x.Fill(3)
	benchEvalInto(b, ops.NewClip(0, 2), []*tensor.Tensor{x}, tensor.New(1, 32, 32, 16))
}
