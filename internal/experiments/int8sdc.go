package experiments

import (
	"context"
	"fmt"
	"strings"

	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
)

// Int8SDCRow reports one model's SDC rates under single-bit-flip
// campaigns against the plain and the restricted quantized model.
type Int8SDCRow struct {
	Model string `json:"model"`
	// SDCInt8 and SDCInt8Restricted are the campaign SDC rates
	// (classifiers: top-1; steering models: deviation > 15°) under one
	// random int8 bit flip per execution.
	SDCInt8           float64 `json:"sdc_int8"`
	SDCInt8Restricted float64 `json:"sdc_int8_restricted"`
	// Trials is the campaign size behind the SDC rates.
	Trials int `json:"trials"`
}

// Int8SDCResult is the int8 backend's counterpart of Figs. 6 and 7.
type Int8SDCResult struct {
	Rows []Int8SDCRow `json:"rows"`
}

// Render implements the experiment result interface.
func (r *Int8SDCResult) Render() string {
	var b strings.Builder
	b.WriteString("Quantized backend: SDC rates under single bit flips, int8 vs int8+restriction\n")
	b.WriteString("(restriction folds into the int8 saturating clamp)\n\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %8s\n", "model", "SDC int8", "SDC int8+rr", "trials")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %9.1f%% %11.1f%% %8d\n",
			row.Model, row.SDCInt8*100, row.SDCInt8Restricted*100, row.Trials)
	}
	return b.String()
}

// quantSDC runs a single-bit-flip campaign against m (calibrated under its
// own name) over the given feeds and reduces the outcome to one SDC
// rate.
func (r *Runner) quantSDC(ctx context.Context, m *models.Model, feeds []graph.Feeds) (float64, int, error) {
	calib, err := r.Calibration(m)
	if err != nil {
		return 0, 0, err
	}
	c := r.campaign(m, fixpoint.Format{}, inject.DefaultScenario(), 8801)
	c.Calibration = calib
	out, err := c.Run(ctx, feeds)
	if err != nil {
		return 0, 0, err
	}
	switch m.Kind {
	case models.Regressor:
		return out.RateAbove(15), out.Trials, nil
	default:
		return out.Top1Rate(), out.Trials, nil
	}
}

// Int8SDC runs single-bit-flip campaigns on every benchmark's quantized
// model, plain and Ranger-protected: the deployed numeric format, where
// the Ranger clamp is folded into arithmetic the datapath performs
// anyway. Protection overhead is timed by the repository benchmark
// (bench/), not here.
func Int8SDC(ctx context.Context, r *Runner) (*Int8SDCResult, error) {
	res := &Int8SDCResult{}
	for _, name := range models.Names() {
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
		feeds, err := r.Inputs(name)
		if err != nil {
			return nil, err
		}
		row := Int8SDCRow{Model: name}
		if row.SDCInt8, row.Trials, err = r.quantSDC(ctx, m, feeds); err != nil {
			return nil, fmt.Errorf("int8sdc %s (campaign): %w", name, err)
		}
		if row.SDCInt8Restricted, _, err = r.quantSDC(ctx, pm, feeds); err != nil {
			return nil, fmt.Errorf("int8sdc %s (protected campaign): %w", name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
