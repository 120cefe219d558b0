// Package experiments regenerates every table and figure of the Ranger
// paper's evaluation (§V, §VI) on the reproduced substrate: Fig. 4
// (bound convergence), Fig. 6/7 (SDC rates with and without Ranger),
// Fig. 8 (comparison with Hong et al.), Tables II-IV (accuracy,
// insertion time, FLOP overhead), Fig. 9 (16-bit datatype), Fig. 10 and
// Table V (bound percentile trade-off), Fig. 11/12 (multi-bit faults),
// Table VI (technique comparison), and the §VI-C design alternatives.
// Each experiment is exposed both through cmd/rangerbench and through
// the bench_test.go harness at the repository root.
package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/parallel"
	"ranger/internal/train"
)

// Config scales the experiment campaigns. The paper uses 10 inputs and
// 3000-5000 trials per model; the defaults here regenerate every artifact
// in minutes on one core and can be raised via fields or the
// RANGER_TRIALS / RANGER_INPUTS environment variables.
type Config struct {
	// Trials is the number of fault injections per input.
	Trials int
	// Inputs is the number of (correctly predicted) inputs per model.
	Inputs int
	// ProfileSamples is the number of training samples profiled for
	// restriction bounds.
	ProfileSamples int
	// EvalSamples is the number of validation samples for accuracy
	// metrics (Tables II and V).
	EvalSamples int
	// Seed drives all campaigns.
	Seed int64
	// Workers is the worker-pool width for campaigns and per-model
	// sweeps; 0 uses the process default (RANGER_WORKERS or the core
	// count). Evaluation batches, input selection, and kernel sharding
	// follow the process default directly (parallel.SetWorkers), and
	// nested parallel stages adapt to leftover pool capacity. Results
	// are identical at every worker count.
	Workers int
	// Zoo supplies trained models; nil uses train.Default().
	Zoo *train.Zoo
}

// DefaultConfig returns the laptop-scale configuration, honoring
// RANGER_TRIALS, RANGER_INPUTS, and RANGER_WORKERS overrides.
func DefaultConfig() Config {
	cfg := Config{
		Trials:         150,
		Inputs:         4,
		ProfileSamples: 120,
		EvalSamples:    200,
		Seed:           1234,
		Workers:        parallel.Workers(),
	}
	if v, err := strconv.Atoi(os.Getenv("RANGER_TRIALS")); err == nil && v > 0 {
		cfg.Trials = v
	}
	if v, err := strconv.Atoi(os.Getenv("RANGER_INPUTS")); err == nil && v > 0 {
		cfg.Inputs = v
	}
	return cfg
}

// Runner caches trained models, profiled bounds, selected inputs, and
// protected graphs across experiments. All methods are safe for
// concurrent use; expensive per-model derivations (profiling, input
// selection, protection) serialize per model, not globally, so per-model
// experiment sweeps overlap.
type Runner struct {
	cfg Config

	mu        sync.Mutex
	perModel  map[string]*sync.Mutex
	bounds    map[string]core.Bounds
	maxima    map[string]map[string]float64
	inputs    map[string][]graph.Feeds
	protected map[string]*models.Model
	calib     map[string]graph.Calibration
}

// NewRunner builds a Runner for the given configuration.
func NewRunner(cfg Config) *Runner {
	if cfg.Zoo == nil {
		cfg.Zoo = train.Default()
	}
	if cfg.Trials <= 0 {
		cfg.Trials = DefaultConfig().Trials
	}
	if cfg.Inputs <= 0 {
		cfg.Inputs = DefaultConfig().Inputs
	}
	if cfg.ProfileSamples <= 0 {
		cfg.ProfileSamples = DefaultConfig().ProfileSamples
	}
	if cfg.EvalSamples <= 0 {
		cfg.EvalSamples = DefaultConfig().EvalSamples
	}
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.Workers()
	}
	return &Runner{
		cfg:       cfg,
		perModel:  make(map[string]*sync.Mutex),
		bounds:    make(map[string]core.Bounds),
		maxima:    make(map[string]map[string]float64),
		inputs:    make(map[string][]graph.Feeds),
		protected: make(map[string]*models.Model),
		calib:     make(map[string]graph.Calibration),
	}
}

// modelLock returns the mutex serializing expensive derivations for one
// model name.
func (r *Runner) modelLock(name string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.perModel[name]
	if !ok {
		l = &sync.Mutex{}
		r.perModel[name] = l
	}
	return l
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// Model returns the trained model by name.
func (r *Runner) Model(name string) (*models.Model, error) {
	return r.cfg.Zoo.Get(name)
}

// Dataset returns the dataset a model trains on.
func (r *Runner) Dataset(m *models.Model) (data.Dataset, error) {
	return train.DatasetByName(m.Dataset)
}

// Bounds returns (and caches) the profiled 100th-percentile restriction
// bounds for a model, derived from its training split as in §V-A.
func (r *Runner) Bounds(name string) (core.Bounds, error) {
	lock := r.modelLock(name)
	lock.Lock()
	defer lock.Unlock()
	r.mu.Lock()
	b, ok := r.bounds[name]
	r.mu.Unlock()
	if ok {
		return b, nil
	}
	b, maxima, err := r.profile(name, 0)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.bounds[name] = b
	r.maxima[name] = maxima
	r.mu.Unlock()
	return b, nil
}

// ActMaxima returns per-activation profiled maxima (used by the symptom
// and ML detector baselines).
func (r *Runner) ActMaxima(name string) (map[string]float64, error) {
	if _, err := r.Bounds(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxima[name], nil
}

// profile profiles a model's activation ranges over the training
// split. reservoir > 0 additionally retains a value sample for percentile
// bounds; callers needing percentiles use Profiler directly via this hook.
func (r *Runner) profile(name string, reservoir int) (core.Bounds, map[string]float64, error) {
	m, err := r.cfg.Zoo.Get(name)
	if err != nil {
		return nil, nil, err
	}
	p, err := r.newProfiler(m, reservoir)
	if err != nil {
		return nil, nil, err
	}
	maxima := make(map[string]float64)
	b := p.Bounds()
	for act, bound := range b {
		maxima[act] = bound.High
	}
	return b, maxima, nil
}

// newProfiler profiles ProfileSamples training samples and returns the
// loaded profiler, from which callers can take max or percentile bounds.
func (r *Runner) newProfiler(m *models.Model, reservoir int) (*core.Profiler, error) {
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		return nil, err
	}
	opts := core.ProfileOptions{ReservoirSize: reservoir, Seed: r.cfg.Seed, UseInherentBounds: true}
	p := core.NewProfiler(m.Graph, opts)
	const batch = 8
	n := r.cfg.ProfileSamples
	if n > ds.Len(data.Train) {
		n = ds.Len(data.Train)
	}
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, _, _ := data.Batch(ds, data.Train, idx)
		if err := p.Observe(graph.Feeds{m.Input: x}, m.Output); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Protected returns (and caches) the Ranger-protected variant of a model
// under the default configuration (100th-percentile bounds, clip policy).
func (r *Runner) Protected(name string) (*models.Model, error) {
	r.mu.Lock()
	if pm, ok := r.protected[name]; ok {
		r.mu.Unlock()
		return pm, nil
	}
	r.mu.Unlock()
	// Derive bounds before taking the model lock (Bounds takes it too).
	b, err := r.Bounds(name)
	if err != nil {
		return nil, err
	}
	m, err := r.cfg.Zoo.Get(name)
	if err != nil {
		return nil, err
	}
	lock := r.modelLock(name)
	lock.Lock()
	defer lock.Unlock()
	r.mu.Lock()
	if pm, ok := r.protected[name]; ok {
		r.mu.Unlock()
		return pm, nil
	}
	r.mu.Unlock()
	pm, _, err := core.ProtectModel(m, b, core.Options{})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.protected[name] = pm
	r.mu.Unlock()
	return pm, nil
}

// Calibration returns (and caches) the PTQ calibration of a model — the
// given one, which may be a protected variant — profiled over
// ProfileSamples training samples of the dataset the base model trains
// on. Protected duplicates calibrate under their own name, so their
// RangerClip outputs land in the quantized clamp limits.
func (r *Runner) Calibration(m *models.Model) (graph.Calibration, error) {
	key := m.Name
	lock := r.modelLock(key)
	lock.Lock()
	defer lock.Unlock()
	r.mu.Lock()
	c, ok := r.calib[key]
	r.mu.Unlock()
	if ok {
		return c, nil
	}
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		return nil, err
	}
	n := r.cfg.ProfileSamples
	if n > ds.Len(data.Train) {
		n = ds.Len(data.Train)
	}
	c, err = core.CalibrateModel(m, n, func(i int) (graph.Feeds, error) {
		return graph.Feeds{m.Input: ds.Sample(data.Train, i).X}, nil
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.calib[key] = c
	r.mu.Unlock()
	return c, nil
}

// Inputs returns (and caches) Config.Inputs validation samples on which
// the model's fault-free prediction is correct, as the paper requires
// ("we choose 10 inputs per model, and ensure that the DNNs are able to
// generate correct predictions on these inputs"). For steering models,
// "correct" means within 15 degrees of the ground truth.
func (r *Runner) Inputs(name string) ([]graph.Feeds, error) {
	r.mu.Lock()
	if f, ok := r.inputs[name]; ok {
		r.mu.Unlock()
		return f, nil
	}
	r.mu.Unlock()
	lock := r.modelLock(name)
	lock.Lock()
	defer lock.Unlock()
	r.mu.Lock()
	if f, ok := r.inputs[name]; ok {
		r.mu.Unlock()
		return f, nil
	}
	r.mu.Unlock()
	m, err := r.cfg.Zoo.Get(name)
	if err != nil {
		return nil, err
	}
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		return nil, err
	}
	feeds, err := SelectInputs(m, ds, r.cfg.Inputs)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.inputs[name] = feeds
	r.mu.Unlock()
	return feeds, nil
}

// SelectInputs scans the validation split for n samples the model
// predicts correctly and returns single-sample feeds for them. The scan
// compiles the model once, evaluates chunks through graph.RunPlanBatch
// and picks candidates in sample order, so the selected inputs are
// identical at every worker count.
func SelectInputs(m *models.Model, ds data.Dataset, n int) ([]graph.Feeds, error) {
	plan, err := graph.Compile(m.Graph, m.Output)
	if err != nil {
		return nil, err
	}
	var out []graph.Feeds
	limit := ds.Len(data.Val)
	const chunk = 32
	for base := 0; base < limit && len(out) < n; base += chunk {
		end := base + chunk
		if end > limit {
			end = limit
		}
		samples := make([]data.Sample, end-base)
		feeds := make([]graph.Feeds, end-base)
		for i := range feeds {
			samples[i] = ds.Sample(data.Val, base+i)
			feeds[i] = graph.Feeds{m.Input: samples[i].X}
		}
		outs, err := graph.RunPlanBatch(plan, feeds, 0)
		if err != nil {
			return nil, err
		}
		for i := range outs {
			if len(out) == n {
				break
			}
			switch m.Kind {
			case models.Classifier:
				if outs[i][0].ArgMax() == samples[i].Label {
					out = append(out, feeds[i])
				}
			case models.Regressor:
				pred := float64(outs[i][0].Data()[0])
				tgt := float64(samples[i].Target)
				if !m.OutputInDegrees {
					pred = data.RadiansToDegrees(pred)
					tgt = data.RadiansToDegrees(tgt)
				}
				if math.Abs(pred-tgt) < 15 {
					out = append(out, feeds[i])
				}
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("experiments: only %d/%d correct inputs for %s", len(out), n, m.Name)
	}
	return out, nil
}

// campaign builds a campaign against a model with the runner's settings.
// Protected duplicates share the original's placeholder names, so input
// feeds selected for a model work unchanged against its protected
// variant.
func (r *Runner) campaign(m *models.Model, format fixpoint.Format, scen inject.Scenario, seedOffset int64) *inject.Campaign {
	return &inject.Campaign{
		Model:    m,
		Format:   format,
		Scenario: scen,
		Trials:   r.cfg.Trials,
		Seed:     r.cfg.Seed + seedOffset,
		Workers:  r.cfg.Workers,
	}
}

// forEachModel runs fn over names through the worker pool, collecting
// per-model results by index so callers append them in declaration order
// regardless of scheduling.
func forEachModel[T any](r *Runner, names []string, fn func(name string) (T, error)) ([]T, error) {
	results := make([]T, len(names))
	err := parallel.ForEach(r.cfg.Workers, len(names), func(i int) error {
		res, err := fn(names[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
