// Facade: regenerating the paper's tables and figures.
package ranger

import (
	"context"
	"fmt"

	"ranger/internal/experiments"
)

// ExperimentRunner caches trained models, profiled bounds, selected
// inputs, and protected graphs across experiments. Safe for concurrent
// use.
type ExperimentRunner = experiments.Runner

// ExperimentConfig scales experiment campaigns (trials, inputs, seed,
// workers).
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the laptop-scale configuration,
// honoring RANGER_TRIALS, RANGER_INPUTS, and RANGER_WORKERS.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// NewExperimentRunner builds a runner for the given configuration.
func NewExperimentRunner(cfg ExperimentConfig) *ExperimentRunner { return experiments.NewRunner(cfg) }

// SelectInputs scans a validation split for n samples the model predicts
// correctly, the paper's input-selection rule for campaigns.
func SelectInputs(m *Model, ds Dataset, n int) ([]Feeds, error) {
	return experiments.SelectInputs(m, ds, n)
}

// SteeringThresholds are the steering SDC deviation thresholds of §V-B
// (degrees).
var SteeringThresholds = experiments.SteeringThresholds

// ExperimentResult is a rendered experiment artifact (table or figure).
type ExperimentResult interface{ Render() string }

// experimentEntry adapts one concrete experiment function.
type experimentEntry struct {
	run func(ctx context.Context, r *ExperimentRunner) (ExperimentResult, error)
	// json marks results implementing the machine-readable JSON()
	// extension; set where the experiment registers so capability and
	// entry point cannot drift (jsonResult below pins it at compile
	// time for each flagged result type).
	json bool
}

func wrapExperiment[T ExperimentResult](f func(context.Context, *ExperimentRunner) (T, error)) experimentEntry {
	return experimentEntry{run: func(ctx context.Context, r *ExperimentRunner) (ExperimentResult, error) { return f(ctx, r) }}
}

// jsonResult is the machine-readable result extension rangerbench -json
// consumes.
type jsonResult interface{ JSON() ([]byte, error) }

func wrapJSONExperiment[T interface {
	ExperimentResult
	jsonResult
}](f func(context.Context, *ExperimentRunner) (T, error)) experimentEntry {
	e := wrapExperiment(f)
	e.json = true
	return e
}

// experimentFns maps experiment ids to their entry points.
var experimentFns = map[string]experimentEntry{
	"fig4":  wrapExperiment(experiments.Fig4),
	"fig6":  wrapExperiment(experiments.Fig6),
	"fig7":  wrapExperiment(experiments.Fig7),
	"fig8":  wrapExperiment(experiments.Fig8),
	"fig9":  wrapExperiment(experiments.Fig9),
	"fig10": wrapExperiment(experiments.Fig10),
	"fig11": wrapExperiment(experiments.Fig11),
	"fig12": wrapExperiment(experiments.Fig12),
	"tab2":  wrapExperiment(experiments.Table2),
	"tab3":  wrapExperiment(experiments.Table3),
	"tab4":  wrapExperiment(experiments.Table4),
	"tab5":  wrapExperiment(experiments.Table5),
	"tab6":  wrapExperiment(experiments.Table6),
	"alt":   wrapExperiment(experiments.Alternatives),
	// int8sdc is not a paper artifact: single-bit-flip campaign SDC rates
	// on the quantized backend, with and without restriction.
	"int8sdc": wrapExperiment(experiments.Int8SDC),
	// adaptive compares the stratified adaptive-campaign engine against
	// uniform sampling: trials to reach the same per-stratum Wilson CI
	// target. Emits JSON for the bench trajectory.
	"adaptive": wrapJSONExperiment(experiments.AdaptiveCampaign),
	// persistent sweeps the persistent fault surfaces (weight-memory on
	// fp32/int8, quant-param on int8): detection rate and latency under
	// the symptom detector, SDCs served before detection, and
	// scrub-from-golden repair outcomes. Emits JSON for the bench
	// trajectory.
	"persistent": wrapJSONExperiment(experiments.PersistentSurfaces),
}

// experimentOrder fixes the paper's presentation order.
var experimentOrder = []string{"fig4", "fig6", "fig7", "fig8", "tab2", "tab3", "tab4", "fig9", "fig10", "tab5", "fig11", "fig12", "tab6", "alt", "int8sdc", "adaptive", "persistent"}

// ExperimentIDs lists every experiment id in the paper's presentation
// order.
func ExperimentIDs() []string {
	ids := make([]string, len(experimentOrder))
	copy(ids, experimentOrder)
	return ids
}

// ExperimentEmitsJSON reports whether the experiment's result is
// machine-readable (has a JSON() method), letting tools validate a
// -json request before running anything expensive.
func ExperimentEmitsJSON(id string) bool { return experimentFns[id].json }

// RunExperiment regenerates one paper artifact by id (fig4..fig12,
// tab2..tab6, alt), or runs one of the repo's own campaign experiments
// (int8sdc, adaptive, persistent). Cancelling ctx aborts its campaigns
// promptly.
func RunExperiment(ctx context.Context, r *ExperimentRunner, id string) (ExperimentResult, error) {
	f, ok := experimentFns[id]
	if !ok {
		return nil, fmt.Errorf("ranger: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return f.run(ctx, r)
}
