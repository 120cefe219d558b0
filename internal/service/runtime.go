// Building a runnable campaign from a JobSpec. Everything here is a
// deterministic function of the spec (synthetic datasets, seeded model
// initialization, cached zoo weights, deterministic profiling and
// calibration), which is what lets a restarted daemon rebuild the exact
// campaign a dead one was running and continue its trial grid.
package service

import (
	"fmt"

	"ranger/internal/baselines"
	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/train"
)

// normalizeSpec resolves a submitted spec into its canonical manifest
// form: defaults filled, configuration validated, and Inputs clamped to
// the model's dataset size so the manifest's grid total is authoritative
// for the whole job lifetime. Building the (untrained) model here also
// rejects unknown model names at submission instead of at run time.
func normalizeSpec(spec JobSpec, daemonBlock int) (JobSpec, error) {
	spec = spec.withDefaults(daemonBlock)
	if err := spec.validate(); err != nil {
		return JobSpec{}, err
	}
	m, err := models.Build(spec.Model)
	if err != nil {
		return JobSpec{}, fmt.Errorf("service: spec: %w", err)
	}
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		return JobSpec{}, fmt.Errorf("service: spec: %w", err)
	}
	if n := ds.Len(data.Train); spec.Inputs > n {
		spec.Inputs = n
	}
	return spec, nil
}

// jobRuntime is a job's executable form: the configured campaign and its
// input feeds.
type jobRuntime struct {
	campaign *inject.Campaign
	inputs   []graph.Feeds
}

// buildRuntime constructs a job's campaign. spec must be the manifest's
// canonical (defaulted, validated) spec; campaignWorkers caps the
// per-campaign worker-pool width (0 = process default).
func buildRuntime(spec JobSpec, campaignWorkers int) (*jobRuntime, error) {
	var m *models.Model
	var err error
	if spec.Untrained {
		m, err = models.Build(spec.Model)
	} else {
		m, err = train.Default().Get(spec.Model)
	}
	if err != nil {
		return nil, fmt.Errorf("service: model %s: %w", spec.Model, err)
	}
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		return nil, fmt.Errorf("service: dataset for %s: %w", spec.Model, err)
	}
	feedAt := func(i int) (graph.Feeds, error) {
		return graph.Feeds{m.Input: ds.Sample(data.Train, i).X}, nil
	}
	samples := spec.ProfileSamples
	if n := ds.Len(data.Train); samples > n {
		samples = n
	}

	// Persistent-surface jobs always run under the symptom detector
	// (profiled activation maxima), so detection latency and repair have
	// a detection signal to trigger on; profile the pre-protection model
	// once and share the bounds with the Ranger transform.
	persistent := spec.Persistent()
	var bounds core.Bounds
	if spec.Protect == "ranger" || persistent {
		if bounds, err = core.ProfileModel(m, core.ProfileOptions{}, samples, feedAt); err != nil {
			return nil, fmt.Errorf("service: profile %s: %w", spec.Model, err)
		}
	}
	if spec.Protect == "ranger" {
		protected, _, err := core.ProtectModel(m, bounds, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("service: protect %s: %w", spec.Model, err)
		}
		m = protected
	}

	scen, err := inject.NewScenario(spec.Scenario, spec.Faults)
	if err != nil {
		return nil, fmt.Errorf("service: scenario: %w", err)
	}
	c := &inject.Campaign{
		Model:    m,
		Scenario: scen,
		Trials:   spec.Trials,
		Seed:     spec.Seed,
		Workers:  campaignWorkers,
	}
	if spec.Surface != "" {
		surf, err := inject.NewSurface(spec.Surface)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		c.Surface = surf
	}
	if persistent {
		c.SequenceLen = spec.SequenceLen
		c.Repair = spec.Repair
		maxima := make(map[string]float64, len(bounds))
		for name, bd := range bounds {
			maxima[name] = bd.High
		}
		c.Detector = baselines.NewSymptomDetector(maxima, 1)
	}
	switch spec.Adaptive {
	case "stratified":
		c.Adaptive = inject.AdaptiveStratified
	case "worstcase":
		c.Adaptive = inject.AdaptiveWorstCase
	}
	// A campaign rejects stratified settings outside a stratified mode;
	// a stored uniform spec may still carry them, and they never applied.
	if c.Adaptive != inject.SamplingUniform {
		c.CITarget = spec.CITarget
		c.Strata = spec.Strata
	}
	switch spec.Backend {
	case "int8":
		calib, err := core.CalibrateModel(m, samples, feedAt)
		if err != nil {
			return nil, fmt.Errorf("service: calibrate %s: %w", spec.Model, err)
		}
		c.Calibration = calib
	default:
		if spec.Format == "q16" {
			c.Format = fixpoint.Q16
		}
	}

	nin := spec.Inputs
	if n := ds.Len(data.Train); nin > n {
		nin = n
	}
	inputs := make([]graph.Feeds, nin)
	for i := range inputs {
		inputs[i], _ = feedAt(i)
	}
	return &jobRuntime{campaign: c, inputs: inputs}, nil
}
