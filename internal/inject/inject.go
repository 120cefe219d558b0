// Package inject implements the paper's fault-injection methodology
// (§V-A): random bit flips (and the pluggable extended fault scenarios)
// in the fixed-point encoding of operator output values, injected during
// graph execution, with SDC classification for both classifier models
// (misclassification) and steering models (angle deviation thresholds).
// It is the TensorFI counterpart in this reproduction.
//
// The fault model is a Scenario: site sampling plus value corruption,
// selected from a name-keyed registry (see scenario.go). Campaigns are
// context-cancellable and can stream per-trial results through OnTrial.
package inject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// trialSeed derives the fault-sampling seed for one (input, trial) pair
// as hash(seed, input, trial). Each trial owns an independent stream, so
// trials are embarrassingly parallel while the sampled fault sites stay
// bit-identical for a fixed campaign seed at every worker count.
func trialSeed(seed int64, input, trial int) int64 {
	h := parallel.Mix64(uint64(seed))
	h = parallel.Mix64(h ^ uint64(input+1))
	h = parallel.Mix64(h ^ uint64(trial+1))
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// splitmixSource is the rand.Source64 behind every per-trial sampling
// stream: the SplitMix64 generator, whose whole state is one word.
// Campaign workers reseed one long-lived *rand.Rand per trial, and
// math/rand's default source rebuilds its 607-word lagged-Fibonacci
// table on every Seed — ~14µs that dominated the trial loop on small
// models (≈80% of a late-layer lenet campaign's CPU). SplitMix64 seeds
// in one assignment, and each (input, trial) stream is keyed by an
// already-mixed 64-bit trialSeed, so the streams stay independent and
// byte-identical at every worker count.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 emits the canonical SplitMix64 sequence: parallel.Mix64 is the
// SplitMix64 step (golden-ratio increment + finalizer) applied to a
// state that advances by the same golden-ratio constant.
func (s *splitmixSource) Uint64() uint64 {
	v := parallel.Mix64(s.state)
	s.state += 0x9E3779B97F4A7C15
	return v
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// ErrFaultSpaceMismatch reports a sampled fault site whose element index
// lies outside the struck tensor: the fault space was built against
// shapes the execution did not reproduce. Both campaign backends and the
// detector path wrap it; branch with errors.Is.
var ErrFaultSpaceMismatch = errors.New("inject: fault site outside struck tensor (fault-space/shape mismatch)")

// siteBoundsError wraps ErrFaultSpaceMismatch with the offending site.
func siteBoundsError(s Site, size int) error {
	return fmt.Errorf("%w: site %s[%d] in %d elements", ErrFaultSpaceMismatch, s.Node, s.Elem, size)
}

// Campaign runs fault-injection trials against one model.
type Campaign struct {
	Model *models.Model
	// Format is the fixed-point datatype of the simulated datapath
	// (fixpoint.Q32 for RQ1-3, fixpoint.Q16 for RQ4). The zero value
	// means Q32.
	Format fixpoint.Format
	// Scenario is the fault model: site sampling plus value corruption.
	// nil means the paper's primary model, one random bit flip per
	// execution (DefaultScenario).
	Scenario Scenario
	// Trials is the number of injections per input.
	Trials int
	// Seed drives site sampling.
	Seed int64
	// Exclude lists node names removed from the fault space in addition
	// to the model's own ExcludeFI list (the paper's last-FC exclusion).
	Exclude []string
	// RegSDCThresholdDeg is the steering deviation (degrees) above which
	// a regressor trial counts as an SDC in detector accounting and
	// adaptive stopping. The zero value means the paper's smallest
	// threshold, 15 degrees; any negative value is the explicit
	// zero-tolerance sentinel (every nonzero deviation is an SDC), since
	// a literal 0 cannot be told apart from "unset".
	RegSDCThresholdDeg float64
	// TargetNodes, when non-empty, restricts the fault space to the named
	// nodes (used for per-node vulnerability estimation by the selective
	// duplication baseline).
	TargetNodes []string
	// Workers caps the trial-level parallelism; 0 uses the process
	// default (RANGER_WORKERS or the core count). Outcomes are identical
	// at every worker count.
	Workers int
	// Calibration, when non-nil, switches the campaign to the int8
	// quantized backend: the model compiles to an int8 plan under these
	// calibrated value ranges, and faults strike the quantized (int8)
	// representation of operator outputs — the deployed numeric format.
	// The Scenario must then implement Int8Scenario (bitflip-int8,
	// stuckat-int8); Format is ignored.
	Calibration graph.Calibration
	// Adaptive selects the sampling design. The zero value,
	// SamplingUniform, is the classic uniform grid over the fault space
	// (Trials injections per input, run by Run/RunSlice).
	// AdaptiveStratified and AdaptiveWorstCase instead run the
	// stratified engine (RunAdaptive): trials allocate across
	// (layer × bit-band) strata in deterministic rounds, each stratum
	// stopping once its Wilson CI half-width falls below CITarget, with
	// Trials×len(inputs) as the total budget. Run/RunSlice reject
	// adaptive campaigns.
	Adaptive SamplingMode
	// CITarget is the per-stratum 95% Wilson CI half-width at which a
	// stratum stops drawing trials (adaptive modes only); 0 means
	// DefaultCITarget.
	CITarget float64
	// Strata is the number of bit-position bands each fault-space node
	// splits into, high bits first (adaptive modes only); 0 means
	// DefaultStrataBands. Bands clamp to the datapath's bit width.
	Strata int
	// OnTrial, when non-nil, streams each trial's judged result as it
	// completes. Calls are serialized but arrive in scheduling order, not
	// trial order; the final Outcome is still folded deterministically.
	OnTrial func(TrialResult)
	// Surface selects where faults live. nil (or ActivationSurface) is
	// the transient default: faults strike operator outputs in flight,
	// one inference at a time, through Run/RunSlice. Persistent surfaces
	// (weight, quantparam) instead corrupt stored state that outlives an
	// inference and run sequence campaigns through RunPersistent.
	Surface Surface
	// SequenceLen is how many inferences each persistent sequence runs
	// before giving up undetected; 0 means DefaultSequenceLen.
	// Persistent surfaces only.
	SequenceLen int
	// Repair enables detection-triggered scrub-from-golden repair in
	// persistent sequences; it requires a Detector (detection is the
	// trigger). The post-repair replay is byte-checked against the clean
	// reference and accounted in PersistentOutcome.PostRepairOK.
	Repair bool
	// Detector, when non-nil, observes every persistent inference (reset
	// per inference) and its detections end sequences — the
	// inferences-to-detection measurement. nil means sequences run their
	// full length and every SDC counts as undetected. A detector that
	// does not implement CloneableDetector forces sequential execution.
	// Persistent surfaces only; transient campaigns pass their detector
	// to RunWithDetector, which runs it on the same suffix-replay
	// workers as Run, replaying every trial from step 0.
	Detector Detector
	// OnSequence, when non-nil, streams each persistent sequence's
	// result as it completes. Calls are serialized but arrive in
	// scheduling order; the PersistentOutcome still folds in sequence
	// order.
	OnSequence func(SequenceResult)
}

// format returns the effective datapath encoding.
func (c *Campaign) format() fixpoint.Format {
	if c.Format == (fixpoint.Format{}) {
		return fixpoint.Q32
	}
	return c.Format
}

// scenario returns the effective fault scenario.
func (c *Campaign) scenario() Scenario {
	if c.Scenario == nil {
		return DefaultScenario()
	}
	return c.Scenario
}

// regSDCThreshold returns the effective regressor SDC threshold: the
// configured positive value, 0 under the negative zero-tolerance
// sentinel, or the paper's smallest threshold (15°) for the zero value.
func (c *Campaign) regSDCThreshold() float64 {
	if c.RegSDCThresholdDeg < 0 {
		return 0
	}
	if c.RegSDCThresholdDeg > 0 {
		return c.RegSDCThresholdDeg
	}
	return 15
}

// validate rejects unrunnable campaign configurations.
func (c *Campaign) validate(inputs []graph.Feeds) error {
	if c.Trials <= 0 {
		return fmt.Errorf("inject: trials = %d", c.Trials)
	}
	if len(inputs) == 0 {
		return fmt.Errorf("inject: no inputs")
	}
	scen := c.scenario()
	_, int8Scen := scen.(Int8Scenario)
	if c.Calibration != nil && !int8Scen {
		return fmt.Errorf("inject: quantized campaign needs an int8 scenario, got %q", scen.Name())
	}
	if c.Calibration == nil && int8Scen {
		return errInt8Only(scen.Name())
	}
	return scen.Validate(c.format())
}

// TrialResult is one completed trial's judged result, streamed through
// Campaign.OnTrial while the campaign runs.
type TrialResult struct {
	// Input and Trial locate the trial in the campaign grid. For
	// adaptive campaigns Trial is the stratum-local trial index instead.
	Input int
	Trial int
	// Stratum and Seq locate adaptive trials (RunAdaptive only):
	// Stratum indexes the engine's stratum definitions and Seq is the
	// trial's position in the global allocation sequence — the durable
	// frontier adaptive resume replays against.
	Stratum int
	Seq     int64
	// Top1SDC / Top5SDC report classifier misclassification.
	Top1SDC bool
	Top5SDC bool
	// Deviation is the regressor output deviation in degrees.
	Deviation float64
	// IsRegression marks regressor trials (Deviation is meaningful).
	IsRegression bool
	// Detected reports whether the campaign's detector flagged the
	// trial (RunWithDetector only; always false elsewhere).
	Detected bool
	// Masked reports that the faulty fetch was bit-identical to the
	// clean reference: the model's own operators absorbed the fault.
	Masked bool
	// ReplayStart is the plan step the trial's replay began at: its
	// earliest struck step, or 0 on detector campaigns, which replay
	// every node.
	ReplayStart int
	// Elapsed is the trial's own execution time: sampling its sites and
	// replaying it. It is wall-clock and varies run to run, so it stays
	// out of Outcome and the records derived from the trial.
	Elapsed time.Duration
}

// Outcome aggregates a campaign's results. For classifiers Top1SDC and
// Top5SDC count trials whose fault-free top-1 label left the faulty top-1
// (resp. top-5) predictions. For regressors Deviations holds per-trial
// absolute output deviations in degrees.
type Outcome struct {
	Trials     int
	Top1SDC    int
	Top5SDC    int
	Deviations []float64
}

// Top1Rate returns the top-1 SDC rate in [0,1]; 0 for an empty campaign.
func (o Outcome) Top1Rate() float64 {
	if o.Trials == 0 {
		return 0
	}
	return float64(o.Top1SDC) / float64(o.Trials)
}

// Top5Rate returns the top-5 SDC rate in [0,1]; 0 for an empty campaign.
func (o Outcome) Top5Rate() float64 {
	if o.Trials == 0 {
		return 0
	}
	return float64(o.Top5SDC) / float64(o.Trials)
}

// RateAbove returns the fraction of deviations exceeding a threshold (in
// degrees), the steering-model SDC definition of §V-B (15/30/60/120).
// It returns 0 when no deviations were recorded.
func (o Outcome) RateAbove(thresholdDeg float64) float64 {
	if len(o.Deviations) == 0 {
		return 0
	}
	n := 0
	for _, d := range o.Deviations {
		if d > thresholdDeg {
			n++
		}
	}
	return float64(n) / float64(len(o.Deviations))
}

// corruptibleFilter returns the predicate deciding whether a node is a
// potential fault-injection target: no placeholders or variables, no
// excluded nodes (the model's ExcludeFI plus the campaign's extras),
// and the TargetNodes restriction when set. The fault space and the
// plan's observation points share this single predicate, which is what
// keeps plan-backed campaign outcomes byte-identical: every node a site
// can land on is guaranteed to be an observation point.
func corruptibleFilter(m *models.Model, extraExclude, targetNodes []string) func(*graph.Node) bool {
	excluded := make(map[string]bool, len(m.ExcludeFI)+len(extraExclude))
	for _, n := range m.ExcludeFI {
		excluded[n] = true
	}
	for _, n := range extraExclude {
		excluded[n] = true
	}
	var targets map[string]bool
	if len(targetNodes) > 0 {
		targets = make(map[string]bool, len(targetNodes))
		for _, n := range targetNodes {
			targets[n] = true
		}
	}
	return func(n *graph.Node) bool {
		switch n.Op().(type) {
		case *graph.Placeholder, *graph.Variable:
			return false
		}
		if excluded[n.Name()] {
			return false
		}
		if targets != nil && !targets[n.Name()] {
			return false
		}
		return true
	}
}

// faultSpace sizes one input's fault space from the compiled plan,
// without executing anything: the corruptible nodes the plan
// materializes, in graph order, each weighted by the element count of
// its inferred output shape under these feeds. Every corruptible node is
// an observation point and so owns a plan step, and plan steps follow
// graph order restricted to the fetch's ancestors — exactly the nodes,
// order and sizes an executed pass would observe. Sites are then sampled
// uniformly over *elements* (not ops), matching the paper's state-space
// accounting (its last-FC exclusion argument counts elements). Feeds are
// checked by the plan's layout signature, so a mis-shaped or missing
// feed fails here with graph.ErrFeedShape or graph.ErrMissingFeed.
func (c *Campaign) faultSpace(plan *graph.Plan, feeds graph.Feeds) (*FaultSpace, error) {
	shapes, err := plan.InferredShapes(feeds)
	if err != nil {
		return nil, fmt.Errorf("inject: size fault space: %w", err)
	}
	corruptible := corruptibleFilter(c.Model, c.Exclude, c.TargetNodes)
	fs := &FaultSpace{}
	for _, n := range c.Model.Graph.Nodes() {
		if !corruptible(n) || plan.StepOf(n.Name()) < 0 {
			continue
		}
		shape, ok := shapes[n.Name()]
		if !ok {
			return nil, fmt.Errorf("inject: fault-space node %q (%s) has no inferred shape", n.Name(), n.Op().Type())
		}
		size := 1
		for _, d := range shape {
			size *= d
		}
		fs.nodes = append(fs.nodes, n.Name())
		fs.sizes = append(fs.sizes, size)
		fs.total += int64(size)
	}
	if fs.total == 0 {
		return nil, fmt.Errorf("inject: empty fault space for %s", c.Model.Name)
	}
	return fs, nil
}

// CorruptibleNodes returns the model's corruptible node names in
// execution order — the fault-space node set of a campaign with the
// given extra exclusions and TargetNodes restriction (both may be
// nil). It is the one public definition of fault-space eligibility;
// benchmarks and experiments derive late-layer target sets from it
// instead of re-encoding the predicate.
func CorruptibleNodes(m *models.Model, extraExclude, targetNodes []string) []string {
	corruptible := corruptibleFilter(m, extraExclude, targetNodes)
	var out []string
	for _, n := range m.Graph.Nodes() {
		if corruptible(n) {
			out = append(out, n.Name())
		}
	}
	return out
}

// observeNames returns the node names a campaign plan must treat as
// observation points: every potential fault-injection target, decided
// by the same corruptibleFilter predicate the fault space samples from.
// Marking them non-fusable keeps every corruptible intermediate value
// identical to the legacy executor's, so plan-backed campaign outcomes
// are byte-identical.
func (c *Campaign) observeNames() []string {
	return CorruptibleNodes(c.Model, c.Exclude, c.TargetNodes)
}

// compile builds the campaign's shared execution plan: compiled once per
// Run, reused across every trial and worker. A detector observes every
// operator output, so a detector campaign's plan marks every node as an
// observation point (no fusion).
func (c *Campaign) compile(det Detector) (*graph.Plan, error) {
	opts := graph.CompileOptions{Observe: c.observeNames()}
	if det != nil {
		opts = graph.CompileOptions{ObserveAll: true}
	}
	plan, err := graph.CompileWith(c.Model.Graph, opts, c.Model.Output)
	if err != nil {
		return nil, fmt.Errorf("inject: compile %s: %w", c.Model.Name, err)
	}
	return plan, nil
}

// Run executes the campaign over the given inputs. Each input's fault-free
// output is the SDC reference, as in the paper (inputs are chosen so the
// fault-free prediction is correct; see experiments.SelectInputs).
//
// The model is compiled once into an execution plan (excluded nodes fuse;
// every corruptible node stays an observation point) and the plan is
// reused across all trials and workers. When Calibration is set the plan
// is additionally quantized to int8 and faults strike the quantized
// representation. The clean pass checkpoints each input's live
// intermediate values and every trial replays only its fault's forward
// cone, window by window (graph.Plan.RunCone): replay starts at the
// earliest struck step, corrupting struck elements in place (no
// per-trial cloning), executes only the steps that read a corrupted
// value, recomputes only the output pixels the corrupted ones reach,
// and stops as soon as no corrupted value is left — a fault the
// operators absorb bit-exactly (TrialResult.Masked) costs only the
// pixels up to where it vanished.
// Workers group their trial blocks by injection depth so deep-layer
// faults replay back to back. Trials are sharded across workers, each
// trial sampling from its own hash(Seed, input, trial) stream and
// judged into an index slot, then reduced in trial order — the Outcome
// is byte-identical at every worker count, to a full replay from step
// 0, and to the pre-plan executor.
// Cancelling ctx makes Run return promptly with ctx.Err() and a zero
// Outcome — never a partial one — no matter where in the campaign the
// cancellation lands; workers observe the context between trials.
func (c *Campaign) Run(ctx context.Context, inputs []graph.Feeds) (Outcome, error) {
	return c.RunSlice(ctx, inputs, 0, c.GridSize(inputs))
}

// GridSize returns the linearized size of the campaign's (input, trial)
// grid: len(inputs) * Trials.
func (c *Campaign) GridSize(inputs []graph.Feeds) int64 {
	return int64(len(inputs)) * int64(c.Trials)
}

// RunSlice executes the sub-range [start, end) of the campaign's
// linearized (input, trial) grid, where position p maps to input
// p/Trials, trial p%Trials. Trials keep their absolute identities — each
// samples from the same hash(Seed, input, trial) stream Run would give
// it — so a campaign split into consecutive slices folds, slice by
// slice, into exactly the Outcome of one uninterrupted Run: Trials,
// Top1SDC, and Top5SDC add, and Deviations concatenate in order. This is
// the durable-resume primitive behind the rangerd service: persist each
// completed slice, then resume from the frontier after a crash and the
// aggregate Outcome is byte-identical.
//
// Cancellation follows the Run contract: a cancelled slice returns
// ctx.Err() and a zero Outcome, never a partial fold.
func (c *Campaign) RunSlice(ctx context.Context, inputs []graph.Feeds, start, end int64) (Outcome, error) {
	if c.Adaptive != SamplingUniform {
		return Outcome{}, fmt.Errorf("inject: adaptive campaigns run through RunAdaptive, not Run/RunSlice")
	}
	if s := c.surface(); s.Persistent() {
		return Outcome{}, fmt.Errorf("inject: persistent surface %q runs through RunPersistent, not Run/RunSlice", s.Name())
	}
	if err := c.validate(inputs); err != nil {
		return Outcome{}, err
	}
	total := c.GridSize(inputs)
	if start < 0 || end > total || start > end {
		return Outcome{}, fmt.Errorf("inject: slice [%d,%d) outside grid [0,%d)", start, end, total)
	}
	exec, err := c.newExec(nil)
	if err != nil {
		return Outcome{}, err
	}
	workers := parallel.Resolve(c.Workers)
	var out Outcome
	for ii, feeds := range inputs {
		inLo := int64(ii) * int64(c.Trials)
		sliceLo, sliceHi := max64(start, inLo), min64(end, inLo+int64(c.Trials))
		if sliceLo >= sliceHi {
			continue
		}
		// The input's trial sub-range [t0, t0+n); slot i holds trial t0+i.
		t0, n := int(sliceLo-inLo), int(sliceHi-sliceLo)
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		fs, err := c.faultSpace(exec.plan, feeds)
		if err != nil {
			return Outcome{}, err
		}
		ref, err := exec.prepare(feeds)
		if err != nil {
			return Outcome{}, fmt.Errorf("inject: clean run: %w", err)
		}
		verdicts := make([]trialVerdict, n)
		var emit func(slot int)
		if c.OnTrial != nil {
			ii := ii
			emit = func(slot int) { c.OnTrial(verdicts[slot].result(ii, t0+slot)) }
		}
		if err := c.runShard(ctx, exec, ref, fs, ii, t0, workers, nil, verdicts, emit); err != nil {
			return Outcome{}, err
		}
		for slot := 0; slot < n; slot++ {
			verdicts[slot].apply(&out)
		}
	}
	// A cancellation that lands as (or after) the last trials complete
	// leaves no per-trial error behind; surface it anyway so a cancelled
	// campaign can never masquerade as a completed one.
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	return out, nil
}

// runShard executes one input's block of len(verdicts) trials across
// workers, one trial at a time, each worker grouping its block by
// injection depth. Slot i's trial identity is
// (ii, t0+i) under uniform sampling, or plan[i] when a stratified plan
// is set (t0 is then 0 and the plan item carries the sampling seed and
// stratum constraint). Verdicts land in their slots; emit, when
// non-nil, is called under a shard-wide mutex as each slot's verdict
// lands. The first per-trial error is returned after all
// workers finish, so a shard never half-reports.
func (c *Campaign) runShard(ctx context.Context, exec *campaignExec, ref *tensor.Tensor, fs *FaultSpace, ii, t0, workers int, plan []plannedTrial, verdicts []trialVerdict, emit func(slot int)) error {
	n := len(verdicts)
	errs := make([]error, n)
	var cbMu sync.Mutex
	parallel.Shard(workers, n, func(lo, hi int) {
		tr := exec.newTrial(fs)
		if plan != nil {
			tr.setPlan(plan)
		}
		// Group this worker's block by injection depth: execution
		// order changes, but verdicts and errors land in their trial
		// slots, so the caller's reduction stays in trial order and the
		// Outcome is unchanged.
		order := parallel.OrderByKey(lo, hi, func(slot int) int {
			return tr.depth(ii, t0+slot)
		})
		for _, slot := range order {
			if err := ctx.Err(); err != nil {
				errs[slot] = err
				return
			}
			t := time.Now()
			faulty, err := tr.run(ii, t0+slot)
			elapsed := time.Since(t)
			if err != nil {
				errs[slot] = err
				continue
			}
			v := c.judgeData(ref, faulty.Data())
			v.start, v.masked = tr.replay()
			v.elapsed = elapsed
			if tr.detected != nil {
				v.detected = tr.detected()
			}
			verdicts[slot] = v
			if emit != nil {
				cbMu.Lock()
				emit(slot)
				cbMu.Unlock()
			}
		}
	})
	for slot := 0; slot < n; slot++ {
		if errs[slot] != nil {
			return errs[slot]
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// trialRunner is one worker's trial-execution surface. run executes a
// single (input, trial) and returns the faulty fetch, valid until the
// worker's next trial; replay reports the last run's start step and
// whether its fetch was bit-identical to the reference; depth probes a
// trial's earliest struck plan step. setPlan installs a stratified
// sampling plan: trial indices passed to run/depth then index the plan
// instead of naming uniform-grid trials. detected, non-nil on detector
// campaigns, reports whether the worker's detector flagged the last run.
type trialRunner struct {
	run      func(input, trial int) (*tensor.Tensor, error)
	replay   func() (start int, masked bool)
	depth    func(input, trial int) int
	setPlan  func(plan []plannedTrial)
	detected func() bool
}

// campaignExec abstracts the campaign's execution backend: the fp32
// compiled plan, or the int8 quantized plan when Calibration is set.
// plan is the compiled fp32 plan on both backends (the int8 plan is
// quantized from it); fault spaces are sized from its inferred shapes.
// prepare runs one input's clean pass, capturing the suffix-replay
// checkpoint, and returns the SDC reference (checkpoint-owned, so it
// stays valid after later prepare calls). newTrial builds a worker's
// trialRunner.
type campaignExec struct {
	plan     *graph.Plan
	prepare  func(feeds graph.Feeds) (*tensor.Tensor, error)
	newTrial func(fs *FaultSpace) trialRunner
}

// newExec builds the campaign's execution backend, compiling the shared
// plan once. det, when non-nil, rides along on the fp32 backend: every
// worker observes its trials with its own clone of det, or with det
// itself when it is not a CloneableDetector (the caller then runs one
// worker).
func (c *Campaign) newExec(det Detector) (*campaignExec, error) {
	plan, err := c.compile(det)
	if err != nil {
		return nil, err
	}
	if c.Calibration != nil {
		return c.newExecInt8(plan)
	}
	cleanState := plan.NewState()
	var ckpt *graph.Checkpoint // current input's checkpoint
	prepare := func(feeds graph.Feeds) (*tensor.Tensor, error) {
		cp, err := plan.Checkpoint(cleanState, feeds)
		if err != nil {
			return nil, err
		}
		ckpt = cp
		return cp.Output(0), nil
	}
	newTrial := func(fs *FaultSpace) trialRunner {
		w := &fp32Worker{
			c:     c,
			plan:  plan,
			st:    plan.NewState(),
			ckpt:  ckpt, // captured by the preceding prepare
			det:   det,
			sites: newTrialSites(c, fs, plan.StepOf, plan.Steps()),
		}
		if cd, ok := det.(CloneableDetector); ok {
			w.det = cd.CloneDetector()
		}
		w.makeHook()
		tr := trialRunner{run: w.run, replay: w.replay.last, depth: w.depth, setPlan: func(p []plannedTrial) { w.sites.plan = p }}
		if w.det != nil {
			tr.detected = w.det.Detected
		}
		return tr
	}
	return &campaignExec{plan: plan, prepare: prepare, newTrial: newTrial}, nil
}

// newExecInt8 builds the quantized campaign backend over an int8 plan
// derived from the compiled fp32 plan.
func (c *Campaign) newExecInt8(plan *graph.Plan) (*campaignExec, error) {
	qp, err := graph.Quantize(plan, c.Calibration)
	if err != nil {
		return nil, fmt.Errorf("inject: quantize %s: %w", c.Model.Name, err)
	}
	scen := c.scenario().(Int8Scenario) // checked in validate
	cleanState := qp.NewState()
	var ckpt *graph.QCheckpoint
	prepare := func(feeds graph.Feeds) (*tensor.Tensor, error) {
		cp, err := qp.Checkpoint(cleanState, feeds)
		if err != nil {
			return nil, err
		}
		ckpt = cp
		return cp.Output(0), nil
	}
	newTrial := func(fs *FaultSpace) trialRunner {
		w := &int8Worker{
			c:     c,
			qp:    qp,
			st:    qp.NewState(),
			ckpt:  ckpt,
			scen:  scen,
			sites: newTrialSites(c, fs, qp.StepOf, qp.Steps()),
		}
		w.makeHook()
		return trialRunner{run: w.run, replay: w.replay.last, depth: w.depth, setPlan: func(p []plannedTrial) { w.sites.plan = p }}
	}
	return &campaignExec{plan: plan, prepare: prepare, newTrial: newTrial}, nil
}

// trialSites is a worker's reusable fault-sampling state: the sampled
// site buffer, the per-node site groups (sampling order preserved
// within each node), the struck plan steps and the trial's earliest
// one. All storage recycles across trials, so steady-state sampling
// allocates nothing.
type trialSites struct {
	scen    Scenario
	format  fixpoint.Format
	space   *FaultSpace
	stepOf  func(string) int
	nSteps  int
	rng     *rand.Rand
	buf     []Site
	byNode  map[string][]Site
	used    []string
	strikes *graph.Strikes
	minStep int
	// plan, when non-nil, switches sampling to a stratified plan: the
	// "trial" index passed to sample indexes plan, whose item
	// carries the trial's private sampling seed and stratum constraint.
	// The scenario must then implement StratumScenario (checked by
	// NewAdaptiveRun before any plan is built).
	plan []plannedTrial
}

func newTrialSites(c *Campaign, fs *FaultSpace, stepOf func(string) int, nSteps int) trialSites {
	return trialSites{
		scen:    c.scenario(),
		format:  c.format(),
		space:   fs,
		stepOf:  stepOf,
		nSteps:  nSteps,
		rng:     rand.New(&splitmixSource{}),
		strikes: graph.NewStrikes(nSteps),
	}
}

// sample prepares one trial's sites: it draws them from the trial's
// private hash(seed, input, trial) stream (the worker's RNG reseeded
// with trialSeed, so no trial allocates a generator), groups
// them by node, records each site's plan step and element in strikes
// and sets minStep to the trial's earliest struck step.
// Sites naming nodes the plan does not produce are ignored, as the
// name-keyed hook lookup always ignored them. The previous trial's
// groups are cleared first, recycling all storage.
func (ts *trialSites) sample(seed int64, input, trial int) {
	for _, name := range ts.used {
		ts.byNode[name] = ts.byNode[name][:0]
	}
	ts.used = ts.used[:0]
	ts.strikes.Reset()
	ts.minStep = ts.nSteps
	var band *stratumBand
	s := trialSeed(seed, input, trial)
	if ts.plan != nil {
		pt := &ts.plan[trial]
		s, band = pt.seed, &pt.stratumBand
	}
	ts.rng.Seed(s)
	ts.buf = drawSites(ts.buf, ts.scen, ts.space, ts.format, ts.rng, band)
	if ts.byNode == nil {
		ts.byNode = make(map[string][]Site, len(ts.buf))
	}
	for _, s := range ts.buf {
		si := ts.stepOf(s.Node)
		if si < 0 {
			continue
		}
		if len(ts.byNode[s.Node]) == 0 {
			ts.used = append(ts.used, s.Node)
		}
		ts.byNode[s.Node] = append(ts.byNode[s.Node], s)
		ts.strikes.Add(si, s.Elem)
		if si < ts.minStep {
			ts.minStep = si
		}
	}
}

// undoF32 records one in-place corruption for restoration before the
// worker's next trial (keeping the state's buffers byte-clean, so no
// later read path may ever observe a stale fault).
type undoF32 struct {
	data []float32
	idx  int
	v    float32
}

// replayInfo is what a worker's last trial replay reports beside its
// fetch: the step it began at and whether the fetch was bit-identical
// to the reference.
type replayInfo struct {
	start  int
	masked bool
}

func (r *replayInfo) last() (int, bool) { return r.start, r.masked }

// fp32Worker owns one worker's fp32 trial execution: a private plan
// state, the reusable sampling and undo buffers, and the in-place
// corruption hook. After warmup a trial allocates nothing. Trials
// replay only their fault's cone, window by window (Plan.RunCone,
// told the struck elements through the sampled Strikes); det, when set,
// observes every node of every trial, so its trials replay in full
// from step 0.
type fp32Worker struct {
	c      *Campaign
	plan   *graph.Plan
	st     *graph.PlanState
	ckpt   *graph.Checkpoint
	det    Detector
	sites  trialSites
	undo   []undoF32
	err    error
	hook   graph.Hook
	replay replayInfo
}

// makeHook builds the worker's corruption hook once; per trial it only
// reads the refreshed sampling state. Corruption is in place — the
// struck tensors are slot-backed (or per-run allocations) that every
// replay refills from the checkpoint or recomputes, and restore()
// reverts the bytes before the next trial anyway — so the hot path
// never clones a tensor. The detector, if any, then observes the
// node's (possibly faulty) output.
func (w *fp32Worker) makeHook() {
	w.hook = func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		ss := w.sites.byNode[n.Name()]
		if len(ss) > 0 && w.err == nil {
			data := out.Data()
			for _, s := range ss {
				if s.Elem < 0 || s.Elem >= len(data) {
					w.err = siteBoundsError(s, len(data))
					return nil
				}
				v, err := w.sites.scen.Corrupt(w.sites.format, data[s.Elem], s)
				if err != nil {
					w.err = fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
					return nil
				}
				w.undo = append(w.undo, undoF32{data, s.Elem, data[s.Elem]})
				data[s.Elem] = v
			}
		}
		if w.det != nil {
			w.det.Observe(n, out)
		}
		return nil
	}
}

// restore reverts the previous trial's in-place corruptions.
func (w *fp32Worker) restore() {
	for i := len(w.undo) - 1; i >= 0; i-- {
		u := w.undo[i]
		u.data[u.idx] = u.v
	}
	w.undo = w.undo[:0]
}

// run executes one trial and returns the faulty fetch output, valid
// until the worker's next trial.
func (w *fp32Worker) run(input, trial int) (*tensor.Tensor, error) {
	w.restore()
	w.err = nil
	w.sites.sample(w.c.Seed, input, trial)
	var outs []*tensor.Tensor
	var err error
	if w.det != nil {
		w.det.Reset()
		w.replay.start = 0
		outs, err = w.plan.RunFrom(w.st, w.ckpt, 0, w.hook)
		if err == nil {
			w.replay.masked = bitsEqual(outs[0].Data(), w.ckpt.Output(0).Data())
		}
	} else {
		w.replay.start = w.sites.minStep
		outs, w.replay.masked, err = w.plan.RunCone(w.st, w.ckpt, w.sites.strikes, w.hook)
	}
	if w.err != nil {
		return nil, w.err
	}
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0], nil
}

// depth returns the trial's injection depth (its earliest struck plan
// step) by sampling its site stream without executing anything. The
// later run() resamples the same stream — it needs the full per-node
// groups for the hook, so caching just minStep here would save nothing
// — which is sound because Scenario sampling must be a pure function
// of the trial's private stream (the documented statelessness
// contract), and cheap because a sampling pass is a handful of RNG
// draws against a plan suffix of tensor kernels. Detector trials all
// replay from step 0, so they keep trial order — which a non-cloneable
// detector, seeing every trial on one worker, may depend on.
func (w *fp32Worker) depth(input, trial int) int {
	if w.det != nil {
		return 0
	}
	w.sites.sample(w.c.Seed, input, trial)
	return w.sites.minStep
}

// undoI8 is undoF32 for the quantized backend.
type undoI8 struct {
	data []int8
	idx  int
	v    int8
}

// int8Worker mirrors fp32Worker on the quantized plan: faults strike
// the stored int8 words in place through the scenario's CorruptInt8,
// and trials replay their fault's cone (QPlan.RunCone).
type int8Worker struct {
	c      *Campaign
	qp     *graph.QPlan
	st     *graph.QPlanState
	ckpt   *graph.QCheckpoint
	scen   Int8Scenario
	sites  trialSites
	undo   []undoI8
	err    error
	hook   graph.QHook
	replay replayInfo
}

func (w *int8Worker) makeHook() {
	w.hook = func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
		ss := w.sites.byNode[n.Name()]
		if len(ss) == 0 || w.err != nil {
			return nil
		}
		data := out.Data()
		for _, s := range ss {
			if s.Elem < 0 || s.Elem >= len(data) {
				w.err = siteBoundsError(s, len(data))
				return nil
			}
			q, err := w.scen.CorruptInt8(data[s.Elem], s)
			if err != nil {
				w.err = fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
				return nil
			}
			w.undo = append(w.undo, undoI8{data, s.Elem, data[s.Elem]})
			data[s.Elem] = q
		}
		return nil
	}
}

func (w *int8Worker) restore() {
	for i := len(w.undo) - 1; i >= 0; i-- {
		u := w.undo[i]
		u.data[u.idx] = u.v
	}
	w.undo = w.undo[:0]
}

func (w *int8Worker) run(input, trial int) (*tensor.Tensor, error) {
	w.restore()
	w.err = nil
	w.sites.sample(w.c.Seed, input, trial)
	w.replay.start = w.sites.minStep
	outs, masked, err := w.qp.RunCone(w.st, w.ckpt, w.sites.strikes, w.hook)
	w.replay.masked = masked
	if w.err != nil {
		return nil, w.err
	}
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0], nil
}

func (w *int8Worker) depth(input, trial int) int {
	w.sites.sample(w.c.Seed, input, trial)
	return w.sites.minStep
}

// trialVerdict is one trial's judged result, computed concurrently and
// folded into the Outcome in deterministic trial order.
type trialVerdict struct {
	top1, top5 bool
	dev        float64
	isReg      bool
	detected   bool
	masked     bool
	start      int
	elapsed    time.Duration
}

// apply folds the verdict into an Outcome.
func (v trialVerdict) apply(out *Outcome) {
	if v.top1 {
		out.Top1SDC++
	}
	if v.top5 {
		out.Top5SDC++
	}
	if v.isReg {
		out.Deviations = append(out.Deviations, v.dev)
	}
	out.Trials++
}

// result converts the verdict into a streamable TrialResult.
func (v trialVerdict) result(input, trial int) TrialResult {
	return TrialResult{
		Input:        input,
		Trial:        trial,
		Top1SDC:      v.top1,
		Top5SDC:      v.top5,
		Deviation:    v.dev,
		IsRegression: v.isReg,
		Detected:     v.detected,
		Masked:       v.masked,
		ReplayStart:  v.start,
		Elapsed:      v.elapsed,
	}
}

// judgeData judges one faulty output given as its raw fetch data. It
// allocates nothing.
func (c *Campaign) judgeData(ref *tensor.Tensor, faulty []float32) trialVerdict {
	var v trialVerdict
	switch c.Model.Kind {
	case models.Classifier:
		cleanLabel := ref.ArgMax()
		v.top1 = argmaxData(faulty) != cleanLabel
		v.top5 = !top5Contains(faulty, cleanLabel)
	case models.Regressor:
		dev := math.Abs(float64(faulty[0] - ref.Data()[0]))
		if !c.Model.OutputInDegrees {
			dev = dev * 180 / math.Pi
		}
		if math.IsNaN(dev) {
			dev = math.Inf(1)
		}
		v.isReg = true
		v.dev = dev
	}
	return v
}

// argmaxData mirrors tensor.ArgMax on a raw slice: first strict
// maximum against a -Inf start, so NaN-only data yields index 0
// (pinned by TestArgmaxDataMatchesTensor).
func argmaxData(data []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// top5Contains reports whether label c would appear in TopK(5) of data,
// without allocating: c's rank is the number of elements strictly
// greater, or equal with a lower index (TopK's first-max tie-break).
// NaN and -Inf scores are never selected by TopK (its selection is a
// strict '>' against a -Inf sentinel), and NaN comparisons never count
// toward another label's rank — all mirrored here (pinned by
// TestTop5ContainsMatchesTopK).
func top5Contains(data []float32, c int) bool {
	vc := data[c]
	if math.IsNaN(float64(vc)) || math.IsInf(float64(vc), -1) {
		return false
	}
	rank := 0
	for j, v := range data {
		if v > vc || (v == vc && j < c) {
			rank++
			if rank >= 5 {
				return false
			}
		}
	}
	return true
}
