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
	"slices"
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
	// one inference at a time, through Run/RunSlice, RunWithDetector and
	// RunAdaptive. Persistent surfaces (weight, quantparam) instead
	// corrupt stored state that outlives an inference and run sequence
	// campaigns through RunPersistent. Both run on the same engine: a
	// transient trial is a one-inference sequence with nothing persisted.
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
	// full length and every SDC counts as undetected. Each worker
	// observes with its own clone of a CloneableDetector; any other
	// detector forces one worker, which sees the sequences in order.
	// Persistent surfaces only; transient campaigns pass their detector
	// to RunWithDetector, which runs it on the same engine, replaying
	// every trial from step 0.
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

// bits returns the width of the word a fault strikes: the datapath's
// fixed-point width, or 8 on the int8 backend.
func (c *Campaign) bits() int {
	if c.Calibration != nil {
		return 8
	}
	return c.format().Bits()
}

// entry names the entry point a campaign runs through.
type entry int

const (
	uniformEntry            entry = iota // Run, RunSlice
	detectorEntry                        // RunWithDetector
	adaptiveEntry                        // NewAdaptiveRun, RunAdaptive
	sequenceEntry                        // RunPersistentSlice, uniform RunPersistent
	stratifiedSequenceEntry              // RunPersistent under an adaptive mode
)

// validate is the one configuration check: it rejects campaign
// configurations the entry point cannot run — the sampling mode, surface,
// backend and detector each select entry points — and then unrunnable
// trial, input, scenario, persistent and stratified settings. det is
// RunWithDetector's detector.
func (c *Campaign) validate(inputs []graph.Feeds, ep entry, det Detector) error {
	surf := c.surface()
	adaptive := c.Adaptive == AdaptiveStratified || c.Adaptive == AdaptiveWorstCase
	switch {
	case ep == uniformEntry && c.Adaptive != SamplingUniform:
		return fmt.Errorf("inject: adaptive campaigns run through RunAdaptive, not Run/RunSlice")
	case ep == uniformEntry && surf.Persistent():
		return fmt.Errorf("inject: persistent surface %q runs through RunPersistent, not Run/RunSlice", surf.Name())
	case ep == detectorEntry && det == nil:
		return fmt.Errorf("inject: nil detector")
	case ep == detectorEntry && c.Calibration != nil:
		return fmt.Errorf("inject: RunWithDetector observes fp32 values; quantized campaigns run through Run, RunSlice, RunAdaptive and RunPersistent")
	case ep == detectorEntry && c.Adaptive != SamplingUniform:
		return fmt.Errorf("inject: detector campaigns sample uniformly; unset Campaign.Adaptive")
	case ep == detectorEntry && surf.Persistent():
		return fmt.Errorf("inject: persistent surface %q runs through RunPersistent (set Campaign.Detector)", surf.Name())
	case ep == adaptiveEntry && c.Adaptive == SamplingUniform:
		return fmt.Errorf("inject: NewAdaptiveRun needs Campaign.Adaptive set")
	case (ep == adaptiveEntry || ep == stratifiedSequenceEntry) && !adaptive:
		return fmt.Errorf("inject: unknown sampling mode %d", c.Adaptive)
	case ep == adaptiveEntry && surf.Persistent():
		return fmt.Errorf("inject: stratified persistent campaigns run in-engine through RunPersistent, not NewAdaptiveRun")
	case ep == sequenceEntry && c.Adaptive != SamplingUniform:
		return fmt.Errorf("inject: stratified persistent campaigns run through RunPersistent, not slices")
	}
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
	if err := scen.Validate(c.format()); err != nil {
		return err
	}
	if ep == sequenceEntry || ep == stratifiedSequenceEntry {
		if !surf.Persistent() {
			return fmt.Errorf("inject: surface %q is transient; run it through Run", surf.Name())
		}
		if err := surf.Validate(c); err != nil {
			return err
		}
		if c.SequenceLen < 0 {
			return fmt.Errorf("inject: sequence length = %d", c.SequenceLen)
		}
		if c.Repair && c.Detector == nil {
			return fmt.Errorf("inject: Repair without a Detector: detection is what triggers the scrub")
		}
	}
	if ep == adaptiveEntry || ep == stratifiedSequenceEntry {
		if _, ok := scen.(StratumScenario); !ok {
			return fmt.Errorf("inject: scenario %q does not support stratified sampling", scen.Name())
		}
		if c.CITarget < 0 || c.CITarget >= 1 {
			return fmt.Errorf("inject: CI target %v outside (0,1)", c.CITarget)
		}
		if c.Strata < 0 {
			return fmt.Errorf("inject: strata = %d", c.Strata)
		}
	}
	return nil
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
	keep := nameFilter(append(slices.Clip(m.ExcludeFI), extraExclude...), targetNodes)
	return func(n *graph.Node) bool {
		switch n.Op().(type) {
		case *graph.Placeholder, *graph.Variable:
			return false
		}
		return keep(n.Name())
	}
}

// nameFilter returns the name predicate of an exclusion list and a
// target restriction: a name passes unless excluded, and, when targets
// is non-empty, only if targeted.
func nameFilter(exclude, targets []string) func(string) bool {
	excluded := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		excluded[n] = true
	}
	var targeted map[string]bool
	if len(targets) > 0 {
		targeted = make(map[string]bool, len(targets))
		for _, n := range targets {
			targeted[n] = true
		}
	}
	return func(name string) bool {
		return !excluded[name] && (targeted == nil || targeted[name])
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
	if err := c.validate(inputs, uniformEntry, nil); err != nil {
		return Outcome{}, err
	}
	total := c.GridSize(inputs)
	if start < 0 || end > total || start > end {
		return Outcome{}, fmt.Errorf("inject: slice [%d,%d) outside grid [0,%d)", start, end, total)
	}
	b, err := c.newBackend(nil)
	if err != nil {
		return Outcome{}, err
	}
	var out Outcome
	for ii, feeds := range inputs {
		inLo := int64(ii) * int64(c.Trials)
		sliceLo, sliceHi := max(start, inLo), min(end, inLo+int64(c.Trials))
		if sliceLo >= sliceHi {
			continue
		}
		// The input's trial sub-range [t0, t0+n); slot i holds trial t0+i.
		t0, n := int(sliceLo-inLo), int(sliceHi-sliceLo)
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		if err := b.prepareInput(feeds, nil); err != nil {
			return Outcome{}, err
		}
		verdicts := make([]trialVerdict, n)
		if err := b.runGrid(ctx, ii, t0, verdicts); err != nil {
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
