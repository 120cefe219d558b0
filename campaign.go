// Facade: fault-injection campaigns and scenarios.
package ranger

import (
	"context"

	"ranger/internal/inject"
)

// Campaign runs fault-injection trials against one model. Configure the
// fault model through Format and Scenario (zero values mean the paper's
// primary model: one random bit flip in a Q32 datapath). The campaign's
// own fields select its mode and so its entry point, each called with a
// cancellable context: a persistent Surface runs sequences through
// RunPersistent; otherwise a set Adaptive runs RunAdaptive, a set
// Detector runs RunWithDetector, and anything else runs Run. A setting
// the mode does not apply is rejected, not ignored. Set OnTrial — or use
// Stream — to receive per-trial results while a long campaign runs.
type Campaign = inject.Campaign

// ErrFaultSpaceMismatch reports a sampled fault site outside the struck
// tensor (the fault space disagrees with the executed shapes); branch
// with errors.Is.
var ErrFaultSpaceMismatch = inject.ErrFaultSpaceMismatch

// SamplingMode selects how a campaign draws its trials: classic uniform
// sampling (the zero value), or adaptive stratified sampling over
// (layer x bit-band) strata with per-stratum Wilson early stopping. Set
// Campaign.Adaptive and call RunAdaptive.
type SamplingMode = inject.SamplingMode

// The campaign sampling modes.
const (
	// SamplingUniform draws hash(Seed, input, trial) streams over the
	// full fault space (the default).
	SamplingUniform = inject.SamplingUniform
	// AdaptiveStratified allocates trials round-robin over open strata,
	// retiring each stratum when its Wilson CI reaches CITarget.
	AdaptiveStratified = inject.AdaptiveStratified
	// AdaptiveWorstCase orders open strata by Wilson upper bound (then
	// high bits first), concentrating the budget on the likely-worst
	// corners of the fault space.
	AdaptiveWorstCase = inject.AdaptiveWorstCase
)

// Adaptive campaign defaults.
const (
	// DefaultCITarget is the per-stratum Wilson half-width campaigns
	// stop at when Campaign.CITarget is zero.
	DefaultCITarget = inject.DefaultCITarget
	// DefaultStrataBands is the bit-band count per fault-space node when
	// Campaign.Strata is zero.
	DefaultStrataBands = inject.DefaultStrataBands
)

// AdaptiveOutcome is an adaptive campaign's result: the classic Outcome
// fold plus per-stratum evidence and the post-stratified SDC estimate.
type AdaptiveOutcome = inject.AdaptiveOutcome

// StratumResult is one stratum's evidence in an AdaptiveOutcome.
type StratumResult = inject.StratumResult

// AdaptiveRun is a resumable adaptive campaign: replay persisted trials
// with ReplayTrial, then call NextRound until Done.
type AdaptiveRun = inject.AdaptiveRun

// Outcome aggregates a campaign's results.
type Outcome = inject.Outcome

// TrialResult is one completed trial's judged result, streamed while a
// campaign runs.
type TrialResult = inject.TrialResult

// Detector is implemented by fault-detection techniques evaluated under
// the detect-and-re-execute recovery model.
type Detector = inject.Detector

// CloneableDetector marks detectors whose trials can shard across
// workers (one clone per worker).
type CloneableDetector = inject.CloneableDetector

// DetectorOutcome extends Outcome with detection accounting.
type DetectorOutcome = inject.DetectorOutcome

// Scenario is a pluggable hardware-fault model over a stored word whose
// width the backend decides (the fixed-point width on fp32, 8 on int8):
// site sampling plus word corruption. Implementations register by name;
// see RegisterScenario.
type Scenario = inject.Scenario

// Band confines a stratified trial's primary fault site to one
// fault-space node and bit band; uniform campaigns pass nil.
type Band = inject.Band

// Site is one sampled fault location.
type Site = inject.Site

// FaultSpace is the set of sampleable operator-output elements for one
// model input.
type FaultSpace = inject.FaultSpace

// The built-in fault scenarios.
type (
	// BitFlips is the paper's primary model: independent random bit
	// flips (1 = §V-A single bit; 2-5 = §VI-B multi-bit).
	BitFlips = inject.BitFlips
	// ConsecutiveBits lands all flips in consecutive bits of one value
	// (§VI-B's alternative multi-bit model).
	ConsecutiveBits = inject.ConsecutiveBits
	// RandomValue replaces struck values with random bit patterns.
	RandomValue = inject.RandomValue
	// StuckAt forces struck bits to a fixed level (0 or 1).
	StuckAt = inject.StuckAt
)

// Surface is a pluggable fault surface: where in the inference stack a
// fault lands and whether it persists across inferences. Activation
// faults (the paper's model) are transient; weight-memory and
// quant-param faults are persistent and drive RunPersistent.
type Surface = inject.Surface

// The built-in fault surfaces.
type (
	// ActivationSurface is the paper's transient model: a fault strikes
	// one operator output during one inference (the default).
	ActivationSurface = inject.ActivationSurface
	// WeightSurface is a persistent weight-memory fault: a flipped bit
	// in a stored fp32 or int8 weight stays flipped across a sequence
	// of inferences until detected (and optionally repaired).
	WeightSurface = inject.WeightSurface
	// QuantParamSurface is a persistent fault in a quantized step's
	// scale or zero-point, skewing every value the step dequantizes
	// (int8 backend only).
	QuantParamSurface = inject.QuantParamSurface
)

// ErrUnknownSurface reports a surface name absent from the registry;
// branch with errors.Is.
var ErrUnknownSurface = inject.ErrUnknownSurface

// DefaultSurface returns the paper's transient activation surface.
func DefaultSurface() Surface { return inject.DefaultSurface() }

// NewSurface builds a registered fault surface by name.
func NewSurface(name string) (Surface, error) { return inject.NewSurface(name) }

// RegisterSurface adds a named surface factory, making it selectable by
// tools such as rangerinject -surface.
func RegisterSurface(name string, f func() (Surface, error)) {
	inject.RegisterSurface(name, f)
}

// SurfaceNames returns the registered surface names, sorted.
func SurfaceNames() []string { return inject.SurfaceNames() }

// DefaultSequenceLen is the persistent-campaign inference-sequence
// length when Campaign.SequenceLen is zero.
const DefaultSequenceLen = inject.DefaultSequenceLen

// PersistentOutcome aggregates a persistent-surface campaign: sequences
// run, detection rate and latency, SDCs before detection, repairs.
type PersistentOutcome = inject.PersistentOutcome

// SequenceResult is one completed persistent fault sequence's judged
// result, streamed while a persistent campaign runs.
type SequenceResult = inject.SequenceResult

// Burst describes a fault flipping one bit in adjacent words of one
// stored tensor, with word-boundary-correct corrupt and undo.
type Burst = inject.Burst

// DefaultScenario returns the paper's primary fault model: one random
// bit flip per execution.
func DefaultScenario() Scenario { return inject.DefaultScenario() }

// NewScenario builds a registered scenario by name with the given
// per-execution fault multiplicity.
func NewScenario(name string, faults int) (Scenario, error) { return inject.NewScenario(name, faults) }

// RegisterScenario adds a named scenario factory, making it selectable
// by tools such as rangerinject -scenario.
func RegisterScenario(name string, f func(faults int) (Scenario, error)) {
	inject.RegisterScenario(name, f)
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return inject.ScenarioNames() }

// Stream runs a campaign and delivers per-trial results on the returned
// channel as trials complete (in scheduling order; the folded Outcome
// stays deterministic). The channel closes when the campaign finishes;
// wait() then returns the final Outcome. Cancelling ctx stops the
// campaign promptly with ctx.Err(). A consumer that stops reading early
// without cancelling does not stall the campaign: wait() drains any
// unread results before returning, so call it only after the consumer
// loop is done.
//
//	results, wait := ranger.Stream(ctx, campaign, inputs)
//	for tr := range results { ... }
//	outcome, err := wait()
func Stream(ctx context.Context, c *Campaign, inputs []Feeds) (<-chan TrialResult, func() (Outcome, error)) {
	ch := make(chan TrialResult, 64)
	done := make(chan struct{})
	var out Outcome
	var err error
	cc := *c
	prev := cc.OnTrial
	cc.OnTrial = func(tr TrialResult) {
		if prev != nil {
			prev(tr)
		}
		select {
		case ch <- tr:
		case <-ctx.Done():
		}
	}
	go func() {
		defer close(done)
		defer close(ch)
		out, err = cc.Run(ctx, inputs)
	}()
	wait := func() (Outcome, error) {
		// Drain results the consumer abandoned so campaign workers are
		// never left blocked on a full channel.
		for range ch {
		}
		<-done
		return out, err
	}
	return ch, wait
}
