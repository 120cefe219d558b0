package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"ranger/internal/baselines"
	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/flops"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/ops"
	"ranger/internal/parallel"
	"ranger/internal/stats"
	"ranger/internal/train"
)

// Table2Row is one model's fault-free accuracy with and without Ranger.
type Table2Row struct {
	Model  string
	Metric string // "top-1", "top-5", "RMSE", "avg-dev"
	// Original and WithRanger are accuracies (fractions) for classifiers
	// and error magnitudes (degrees) for steering models.
	Original   float64
	WithRanger float64
}

// Table2Result reproduces Table II: validation accuracy of the original
// models vs the Ranger-protected models, in the absence of faults.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 evaluates every model on its validation split, one model per
// pool worker.
func Table2(ctx context.Context, r *Runner) (*Table2Result, error) {
	n := r.cfg.EvalSamples
	perModel, err := forEachModel(r, models.Names(), func(name string) ([]Table2Row, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := r.Model(name)
		if err != nil {
			return nil, err
		}
		pm, err := r.Protected(name)
		if err != nil {
			return nil, err
		}
		ds, err := r.Dataset(m)
		if err != nil {
			return nil, err
		}
		if m.Kind == models.Classifier {
			metrics := []struct {
				name string
				k    int
			}{{"top-1", 1}}
			if imagenetModels[name] {
				metrics = append(metrics, struct {
					name string
					k    int
				}{"top-5", 5})
			}
			var rows []Table2Row
			for _, mt := range metrics {
				a, err := train.TopKAccuracy(m, ds, data.Val, n, mt.k)
				if err != nil {
					return nil, err
				}
				b, err := train.TopKAccuracy(pm, ds, data.Val, n, mt.k)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Table2Row{Model: name, Metric: mt.name, Original: a, WithRanger: b})
			}
			return rows, nil
		}
		rmseO, devO, err := train.SteeringMetrics(m, ds, data.Val, n)
		if err != nil {
			return nil, err
		}
		rmseP, devP, err := train.SteeringMetrics(pm, ds, data.Val, n)
		if err != nil {
			return nil, err
		}
		return []Table2Row{
			{Model: name, Metric: "RMSE", Original: rmseO, WithRanger: rmseP},
			{Model: name, Metric: "avg-dev", Original: devO, WithRanger: devP},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}
	for _, rows := range perModel {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Render formats Table II.
func (t *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table II: fault-free validation quality, original vs Ranger\n")
	fmt.Fprintf(&b, "%-12s %-8s %-12s %-12s %-10s\n", "model", "metric", "original", "ranger", "diff")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-8s %-12.4f %-12.4f %+.4f\n",
			row.Model, row.Metric, row.Original, row.WithRanger, row.WithRanger-row.Original)
	}
	return b.String()
}

// Table3Row is one model's Ranger insertion time.
type Table3Row struct {
	Model     string
	Nodes     int
	Protected int
	Time      time.Duration
}

// Table3Result reproduces Table III: time to automatically insert Ranger.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 times the Algorithm 1 transform on every model.
func Table3(ctx context.Context, r *Runner) (*Table3Result, error) {
	res := &Table3Result{}
	for _, name := range models.Names() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := r.Model(name)
		if err != nil {
			return nil, err
		}
		bounds, err := r.Bounds(name)
		if err != nil {
			return nil, err
		}
		_, pres, err := core.ProtectModel(m, bounds, core.Options{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{
			Model:     name,
			Nodes:     m.Graph.Len(),
			Protected: len(pres.Protected),
			Time:      pres.InsertionTime,
		})
	}
	return res, nil
}

// Render formats Table III.
func (t *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III: Ranger insertion (instrumentation) time\n")
	fmt.Fprintf(&b, "%-12s %-8s %-10s %-12s\n", "model", "nodes", "protected", "time")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-8d %-10d %-12s\n", row.Model, row.Nodes, row.Protected, row.Time)
	}
	return b.String()
}

// Table4Row is one model's FLOP accounting.
type Table4Row struct {
	Model      string
	Original   int64
	WithRanger int64
	Overhead   float64
}

// Table4Result reproduces Table IV: computation overhead in FLOPs.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 counts FLOPs for every model with and without Ranger, one model
// per pool worker.
func Table4(ctx context.Context, r *Runner) (*Table4Result, error) {
	rows, err := forEachModel(r, models.Names(), func(name string) (Table4Row, error) {
		if err := ctx.Err(); err != nil {
			return Table4Row{}, err
		}
		m, err := r.Model(name)
		if err != nil {
			return Table4Row{}, err
		}
		pm, err := r.Protected(name)
		if err != nil {
			return Table4Row{}, err
		}
		feeds, err := r.Inputs(name)
		if err != nil {
			return Table4Row{}, err
		}
		orig, err := flops.CountGraph(m.Graph, feeds[0], m.Output)
		if err != nil {
			return Table4Row{}, err
		}
		prot, err := flops.CountGraph(pm.Graph, feeds[0], pm.Output)
		if err != nil {
			return Table4Row{}, err
		}
		return Table4Row{
			Model:      name,
			Original:   orig.Total,
			WithRanger: prot.Total,
			Overhead:   flops.Overhead(orig, prot),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table4Result{Rows: rows}, nil
}

// Render formats Table IV.
func (t *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table IV: computation overhead of Ranger (FLOPs per inference)\n")
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-10s\n", "model", "original", "ranger", "overhead")
	var sum float64
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-14d %-14d %.3f%%\n", row.Model, row.Original, row.WithRanger, row.Overhead*100)
		sum += row.Overhead
	}
	fmt.Fprintf(&b, "%-12s %-14s %-14s %.3f%%\n", "average", "", "", sum/float64(len(t.Rows))*100)
	return b.String()
}

// Table5Result reproduces Table V: Dave-degrees accuracy under different
// restriction-bound percentiles (no faults).
type Table5Result struct {
	Percentiles []float64
	// RMSE[i] and AvgDev[i] correspond to Percentiles[i]; index 0 holds
	// the original (unprotected) model.
	Labels []string
	RMSE   []float64
	AvgDev []float64
}

// Table5 sweeps bound percentiles and measures fault-free accuracy.
func Table5(ctx context.Context, r *Runner) (*Table5Result, error) {
	const name = "dave-degrees"
	m, err := r.Model(name)
	if err != nil {
		return nil, err
	}
	ds, err := r.Dataset(m)
	if err != nil {
		return nil, err
	}
	prof, err := r.newProfiler(m, 200000)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{Percentiles: Fig10Percentiles}
	rmse, dev, err := train.SteeringMetrics(m, ds, data.Val, r.cfg.EvalSamples)
	if err != nil {
		return nil, err
	}
	res.Labels = append(res.Labels, "original")
	res.RMSE = append(res.RMSE, rmse)
	res.AvgDev = append(res.AvgDev, dev)
	for _, pct := range Fig10Percentiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bounds := prof.PercentileBounds(pct)
		pm, _, err := core.ProtectModel(m, bounds, core.Options{})
		if err != nil {
			return nil, err
		}
		rmse, dev, err := train.SteeringMetrics(pm, ds, data.Val, r.cfg.EvalSamples)
		if err != nil {
			return nil, err
		}
		res.Labels = append(res.Labels, fmt.Sprintf("bound-%g%%", pct))
		res.RMSE = append(res.RMSE, rmse)
		res.AvgDev = append(res.AvgDev, dev)
	}
	return res, nil
}

// Render formats Table V.
func (t *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("Table V: Dave-degrees fault-free accuracy by restriction bound\n")
	fmt.Fprintf(&b, "%-14s %-10s %-10s\n", "config", "RMSE", "avg-dev")
	for i, label := range t.Labels {
		fmt.Fprintf(&b, "%-14s %-10.3f %-10.3f\n", label, t.RMSE[i], t.AvgDev[i])
	}
	return b.String()
}

// Table6Row is one protection technique's measured coverage and overhead.
type Table6Row struct {
	Technique string
	// Coverage is the fraction of baseline SDCs eliminated.
	Coverage float64
	// Overhead is the relative compute overhead of the technique
	// (detection checks or redundancy; re-execution costs excluded, as in
	// the paper's Table VI).
	Overhead float64
	// FalsePositiveRate on clean executions (detectors only).
	FalsePositiveRate float64
	// NeedsRecompute records whether SDC elimination relies on
	// re-executing the inference (Ranger's key advantage is "no").
	NeedsRecompute bool
}

// Table6Result reproduces Table VI: comparison of protection techniques
// on a representative classifier.
type Table6Result struct {
	Model string
	// BaselineSDC is the unprotected SDC rate all coverages refer to.
	BaselineSDC stats.Proportion
	Rows        []Table6Row
}

// Table6Protectors fixes the presentation order of the registry-driven
// technique comparison (the paper's Table VI row order). Every entry is
// a key in the baselines protector registry.
var Table6Protectors = []string{"tmr", "dup", "symptom", "ml", "tanh", "abft", "ranger"}

// Table6 measures every registered protection technique on the AlexNet
// benchmark (a mid-size classifier keeps the many-technique campaign
// tractable; the paper's table likewise aggregates to one number per
// technique). Each technique is prepared through the unified Protector
// interface and evaluated by shape: transformed models run a campaign
// directly, detectors run under the detect-and-re-execute recovery
// model, and analytic techniques (TMR) report closed-form coverage.
func Table6(ctx context.Context, r *Runner) (*Table6Result, error) {
	const name = "alexnet"
	m, err := r.Model(name)
	if err != nil {
		return nil, err
	}
	feeds, err := r.Inputs(name)
	if err != nil {
		return nil, err
	}
	maxima, err := r.ActMaxima(name)
	if err != nil {
		return nil, err
	}
	bounds, err := r.Bounds(name)
	if err != nil {
		return nil, err
	}
	orig, err := r.campaign(m, fixpoint.Q32, inject.DefaultScenario(), 0).Run(ctx, feeds)
	if err != nil {
		return nil, err
	}
	base := stats.NewProportion(orig.Top1SDC, orig.Trials)
	res := &Table6Result{Model: name, BaselineSDC: base}
	pc := baselines.ProtectContext{
		Model:     m,
		Zoo:       r.cfg.Zoo,
		Bounds:    bounds,
		ActMaxima: maxima,
		Inputs:    feeds,
		Trials:    r.cfg.Trials,
		Seed:      r.cfg.Seed,
		Workers:   r.cfg.Workers,
	}
	for _, key := range Table6Protectors {
		p, err := baselines.NewProtector(key)
		if err != nil {
			return nil, err
		}
		prot, err := p.Protect(ctx, pc)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", key, err)
		}
		row, err := r.evaluateProtection(ctx, m, prot, feeds, base.Rate)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", key, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// evaluateProtection measures one prepared protection under the runner's
// campaign configuration and produces its Table VI row.
func (r *Runner) evaluateProtection(ctx context.Context, m *models.Model, prot *baselines.Protection, feeds []graph.Feeds, baseSDC float64) (Table6Row, error) {
	row := Table6Row{
		Technique:      prot.Technique,
		Overhead:       prot.Overhead,
		NeedsRecompute: prot.NeedsRecompute,
	}
	switch {
	case prot.AnalyticCoverage != nil:
		row.Coverage = *prot.AnalyticCoverage
	case prot.Detector != nil:
		c := r.campaign(m, fixpoint.Q32, inject.DefaultScenario(), 0)
		c.Detector = prot.Detector
		out, err := c.RunWithDetector(ctx, feeds)
		if err != nil {
			return Table6Row{}, err
		}
		row.Coverage = out.CoverageOfSDCs()
		row.FalsePositiveRate = fpRate(out)
	case prot.Model != nil:
		campaignFeeds := feeds
		if prot.SelectOwnInputs {
			// Retrained variants predict differently; evaluate them on
			// inputs they classify correctly, as the paper does.
			own, err := r.Inputs(prot.Model.Name)
			if err != nil {
				return Table6Row{}, err
			}
			campaignFeeds = own
		}
		out, err := r.campaign(prot.Model, fixpoint.Q32, inject.DefaultScenario(), 0).Run(ctx, campaignFeeds)
		if err != nil {
			return Table6Row{}, err
		}
		row.Coverage = stats.RelativeReduction(baseSDC, out.Top1Rate())
	default:
		return Table6Row{}, fmt.Errorf("protection %q has no evaluable shape", prot.Technique)
	}
	return row, nil
}

func fpRate(out inject.DetectorOutcome) float64 {
	if out.CleanRuns == 0 {
		return 0
	}
	return float64(out.FalsePositives) / float64(out.CleanRuns)
}

// Render formats Table VI.
func (t *Table6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: protection techniques on %s (baseline SDC %s)\n", t.Model, t.BaselineSDC.Percent())
	fmt.Fprintf(&b, "%-26s %-10s %-10s %-8s %-12s\n", "technique", "coverage", "overhead", "FP", "recompute?")
	for _, row := range t.Rows {
		// Coverage is undefined (NaN) when the campaign observed no SDCs
		// to cover; render "n/a" rather than a vacuous number.
		cov := "n/a"
		if !math.IsNaN(row.Coverage) {
			cov = fmt.Sprintf("%.2f", row.Coverage*100)
		}
		fmt.Fprintf(&b, "%-26s %-10s %-10.3f %-8.3f %-12v\n",
			row.Technique, cov, row.Overhead*100, row.FalsePositiveRate*100, row.NeedsRecompute)
	}
	b.WriteString("coverage/overhead/FP in %; overhead excludes re-execution on detection\n")
	return b.String()
}

// AlternativesResult reproduces the §VI-C design-alternative study:
// restriction policies clip-to-bound vs reset-to-zero vs random
// replacement, measured on fault-free accuracy and SDC rate.
type AlternativesResult struct {
	Model    string
	Policies []string
	// Accuracy is the fault-free top-1 validation accuracy per policy;
	// index 0 is the unprotected model.
	Accuracy []float64
	// SDC is the top-1 SDC rate per policy; index 0 is unprotected.
	SDC []stats.Proportion
}

// Alternatives evaluates the three restriction policies on VGG16, the
// model §VI-C uses.
func Alternatives(ctx context.Context, r *Runner) (*AlternativesResult, error) {
	const name = "vgg16"
	m, err := r.Model(name)
	if err != nil {
		return nil, err
	}
	ds, err := r.Dataset(m)
	if err != nil {
		return nil, err
	}
	bounds, err := r.Bounds(name)
	if err != nil {
		return nil, err
	}
	feeds, err := r.Inputs(name)
	if err != nil {
		return nil, err
	}
	res := &AlternativesResult{Model: name, Policies: []string{"unprotected", "clip", "zero", "random"}}
	acc, err := train.TopKAccuracy(m, ds, data.Val, r.cfg.EvalSamples, 1)
	if err != nil {
		return nil, err
	}
	orig, err := r.campaign(m, fixpoint.Q32, inject.DefaultScenario(), 0).Run(ctx, feeds)
	if err != nil {
		return nil, err
	}
	// One restriction policy per pool worker, folded in policy order.
	policies := []ops.Policy{ops.PolicyClip, ops.PolicyZero, ops.PolicyRandom}
	accs := make([]float64, len(policies))
	sdcs := make([]stats.Proportion, len(policies))
	err = parallel.ForEach(r.cfg.Workers, len(policies), func(i int) error {
		pm, _, err := core.ProtectModel(m, bounds, core.Options{Policy: policies[i]})
		if err != nil {
			return err
		}
		acc, err := train.TopKAccuracy(pm, ds, data.Val, r.cfg.EvalSamples, 1)
		if err != nil {
			return err
		}
		out, err := r.campaign(pm, fixpoint.Q32, inject.DefaultScenario(), 0).Run(ctx, feeds)
		if err != nil {
			return err
		}
		accs[i] = acc
		sdcs[i] = stats.NewProportion(out.Top1SDC, out.Trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Accuracy = append(res.Accuracy, acc)
	res.SDC = append(res.SDC, stats.NewProportion(orig.Top1SDC, orig.Trials))
	res.Accuracy = append(res.Accuracy, accs...)
	res.SDC = append(res.SDC, sdcs...)
	return res, nil
}

// Render formats the design-alternatives study.
func (a *AlternativesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design alternatives (§VI-C) on %s: restriction policies\n", a.Model)
	fmt.Fprintf(&b, "%-14s %-12s %-16s\n", "policy", "accuracy", "top-1 SDC")
	for i, p := range a.Policies {
		fmt.Fprintf(&b, "%-14s %-12.4f %-16s\n", p, a.Accuracy[i], a.SDC[i].Percent())
	}
	return b.String()
}
