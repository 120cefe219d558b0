package inject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ranger/internal/fixpoint"
)

// ErrUnknownScenario reports a scenario name absent from the registry;
// NewScenario wraps it so callers can branch with errors.Is.
var ErrUnknownScenario = errors.New("inject: unknown scenario")

// Site is one sampled fault location: an element of a node's output
// tensor and a bit position in its fixed-point encoding. Payload carries
// scenario-specific randomness drawn at sampling time (for example the
// replacement word of a random-value fault), so that applying the
// corruption during graph execution is fully deterministic.
type Site struct {
	Node string
	Elem int
	Bit  int
	// Payload is scenario-defined extra state; bit-flip scenarios leave
	// it zero.
	Payload uint64
}

// FaultSpace describes the sampleable output elements of a graph for one
// input: the evaluated, non-excluded operator outputs, in execution
// order. Campaigns size it from the compiled plan's inferred output
// shapes for the input's feeds, without executing anything. Scenarios
// draw sites from it uniformly over elements, matching the paper's
// state-space accounting.
type FaultSpace struct {
	nodes []string
	sizes []int
	total int64
}

// Nodes returns the node names in the space, in execution order.
func (fs *FaultSpace) Nodes() []string { return fs.nodes }

// NodeSize returns the sampleable element count of the i'th node.
func (fs *FaultSpace) NodeSize(i int) int { return fs.sizes[i] }

// Total returns the number of sampleable output elements.
func (fs *FaultSpace) Total() int64 { return fs.total }

// SampleSite draws a fault location uniformly over output elements, with
// the bit position drawn uniformly from [0, bits). The draw consumes
// exactly one Int63n and one Intn from the stream; custom scenarios that
// reuse it inherit the determinism contract for free.
func (fs *FaultSpace) SampleSite(rng *rand.Rand, bits int) Site {
	k := rng.Int63n(fs.total)
	for i, sz := range fs.sizes {
		if k < int64(sz) {
			return Site{Node: fs.nodes[i], Elem: int(k), Bit: rng.Intn(bits)}
		}
		k -= int64(sz)
	}
	// Unreachable if sizes sum to total.
	return Site{Node: fs.nodes[len(fs.nodes)-1], Elem: 0, Bit: rng.Intn(bits)}
}

// SampleSiteIn draws a fault location confined to one stratum: the
// element uniform over node i's output, the bit uniform over the
// inclusive band [bitLo, bitHi]. Like SampleSite it consumes exactly
// two draws from the stream, so stratified trials inherit the
// determinism contract.
func (fs *FaultSpace) SampleSiteIn(rng *rand.Rand, node, bitLo, bitHi int) Site {
	return Site{
		Node: fs.nodes[node],
		Elem: rng.Intn(fs.sizes[node]),
		Bit:  bitLo + rng.Intn(bitHi-bitLo+1),
	}
}

// Scenario is a pluggable hardware-fault model: it decides where faults
// strike (site sampling) and how a struck value is corrupted. The
// paper's single-bit, independent multi-bit, and consecutive multi-bit
// flip models are Scenario implementations, as are the extended models
// (random-value replacement, stuck-at bits); external packages can
// implement and register their own.
//
// A scenario must be stateless across trials: Sample is called once per
// trial with that trial's private RNG stream, and Corrupt must depend
// only on its arguments. That keeps campaign trials embarrassingly
// parallel and bit-reproducible at every worker count.
type Scenario interface {
	// Name identifies the scenario in reports and the registry.
	Name() string
	// Validate rejects configurations that cannot run under the format.
	Validate(format fixpoint.Format) error
	// Sample draws the fault sites for one execution.
	Sample(space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site
	// Corrupt maps a clean value to the faulty value at one site.
	Corrupt(format fixpoint.Format, v float32, s Site) (float32, error)
}

// SiteAppender is an optional Scenario extension: scenarios that can
// write their sampled sites into a caller-owned buffer let campaign
// workers reuse one slice across trials — part of the zero-allocation
// trial loop. AppendSites must draw from rng exactly as Sample would
// (same sites, same stream consumption); every built-in scenario
// implements it and routes Sample through it. Scenarios without it
// still work, at one small allocation per trial.
type SiteAppender interface {
	Scenario
	// AppendSites appends one execution's fault sites to buf and
	// returns the extended slice.
	AppendSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site
}

// StratumScenario is the optional Scenario extension the adaptive
// campaign engine (Campaign.RunAdaptive) requires: AppendStratumSites
// draws one execution's fault sites with the trial's primary site
// confined to a stratum — one fault-space node and an inclusive bit
// band [bitLo, bitHi] — while any additional sites of a multi-fault
// scenario draw from the full space exactly as AppendSites would. The
// statelessness contract carries over: the draw must be a pure function
// of the rng stream, so stratified trials stay bit-reproducible at
// every worker count. All built-in scenarios implement it.
type StratumScenario interface {
	Scenario
	// AppendStratumSites appends one execution's fault sites to buf,
	// primary site confined to the stratum, and returns the extended
	// slice.
	AppendStratumSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand, node, bitLo, bitHi int) []Site
}

// drawSites draws one execution's fault sites from rng into buf (whose
// contents it discards): with the primary site confined to the stratum
// b when b is non-nil (the scenario must then implement
// StratumScenario), otherwise uniformly over the space, through
// SiteAppender when the scenario implements it.
func drawSites(buf []Site, scen Scenario, space *FaultSpace, format fixpoint.Format, rng *rand.Rand, b *stratumBand) []Site {
	if b != nil {
		return scen.(StratumScenario).AppendStratumSites(buf[:0], space, format, rng, b.node, b.bitLo, b.bitHi)
	}
	if ap, ok := scen.(SiteAppender); ok {
		return ap.AppendSites(buf[:0], space, format, rng)
	}
	return scen.Sample(space, format, rng)
}

// DefaultScenario returns the paper's primary fault model: one random
// bit flip per execution.
func DefaultScenario() Scenario { return BitFlips{Flips: 1} }

// BitFlips is the paper's primary fault model (§V-A) and its §VI-B
// independent multi-bit extension: Flips independent (node, element,
// bit) sites per execution, each flipping one bit. Independent draws may
// collide on the same (element, bit); two flips of one bit cancel, which
// is the faithful XOR semantics of independent upsets (pinned by
// TestIndependentFlipsMayCollide).
type BitFlips struct {
	// Flips is the number of independent bit flips per execution
	// (1 = the paper's primary single-bit model; 2-5 for §VI-B).
	Flips int
}

// Name implements Scenario.
func (b BitFlips) Name() string { return "bitflip" }

// Validate implements Scenario.
func (b BitFlips) Validate(fixpoint.Format) error {
	if b.Flips <= 0 {
		return fmt.Errorf("inject: bit flips = %d", b.Flips)
	}
	return nil
}

// Sample implements Scenario.
func (b BitFlips) Sample(space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	return b.AppendSites(make([]Site, 0, b.Flips), space, format, rng)
}

// AppendSites implements SiteAppender.
func (b BitFlips) AppendSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	for i := 0; i < b.Flips; i++ {
		buf = append(buf, space.SampleSite(rng, format.Bits()))
	}
	return buf
}

// AppendStratumSites implements StratumScenario: the first flip lands
// in the stratum, any further independent flips draw from the full
// space.
func (b BitFlips) AppendStratumSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand, node, bitLo, bitHi int) []Site {
	buf = append(buf, space.SampleSiteIn(rng, node, bitLo, bitHi))
	for i := 1; i < b.Flips; i++ {
		buf = append(buf, space.SampleSite(rng, format.Bits()))
	}
	return buf
}

// Corrupt implements Scenario.
func (b BitFlips) Corrupt(format fixpoint.Format, v float32, s Site) (float32, error) {
	return format.FlipBit(v, s.Bit)
}

// ConsecutiveBits is §VI-B's alternative multi-bit model: all Flips land
// in consecutive bit positions of a single value, instead of independent
// flips across multiple values (the model the paper argues is the more
// damaging and hence conservative choice). Flips is clamped to the
// format width, and the start bit is drawn so the run never crosses the
// word boundary.
type ConsecutiveBits struct {
	// Flips is the length of the consecutive bit run.
	Flips int
}

// Name implements Scenario.
func (c ConsecutiveBits) Name() string { return "consecutive" }

// Validate implements Scenario.
func (c ConsecutiveBits) Validate(fixpoint.Format) error {
	if c.Flips <= 0 {
		return fmt.Errorf("inject: bit flips = %d", c.Flips)
	}
	return nil
}

// Sample implements Scenario.
func (c ConsecutiveBits) Sample(space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	return c.AppendSites(make([]Site, 0, c.Flips), space, format, rng)
}

// AppendSites implements SiteAppender.
func (c ConsecutiveBits) AppendSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	width := format.Bits()
	k := c.Flips
	if k > width {
		k = width
	}
	s := space.SampleSite(rng, width-k+1)
	for b := 0; b < k; b++ {
		buf = append(buf, Site{Node: s.Node, Elem: s.Elem, Bit: s.Bit + b})
	}
	return buf
}

// AppendStratumSites implements StratumScenario: the run's start bit is
// drawn from the band, clamped so the run never crosses the word
// boundary (a band at the very top of the word starts the run at
// width-Flips, which still covers the band's bits).
func (c ConsecutiveBits) AppendStratumSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand, node, bitLo, bitHi int) []Site {
	width := format.Bits()
	k := c.Flips
	if k > width {
		k = width
	}
	lo, hi := bitLo, bitHi
	if top := width - k; hi > top {
		hi = top
	}
	if lo > hi {
		lo = hi
	}
	s := space.SampleSiteIn(rng, node, lo, hi)
	for b := 0; b < k; b++ {
		buf = append(buf, Site{Node: s.Node, Elem: s.Elem, Bit: s.Bit + b})
	}
	return buf
}

// Corrupt implements Scenario.
func (c ConsecutiveBits) Corrupt(format fixpoint.Format, v float32, s Site) (float32, error) {
	return format.FlipBit(v, s.Bit)
}

// RandomValue models a fault that destroys a whole word: each struck
// element is replaced by a uniformly random bit pattern of the format
// (the "random value replacement" corruption used by several
// fault-injection frameworks as a coarser upper bound on bit flips).
type RandomValue struct {
	// Faults is the number of values replaced per execution.
	Faults int
}

// Name implements Scenario.
func (r RandomValue) Name() string { return "randomvalue" }

// Validate implements Scenario.
func (r RandomValue) Validate(fixpoint.Format) error {
	if r.Faults <= 0 {
		return fmt.Errorf("inject: random-value faults = %d", r.Faults)
	}
	return nil
}

// Sample implements Scenario. The replacement word is drawn here, into
// the site payload, so Corrupt stays deterministic.
func (r RandomValue) Sample(space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	return r.AppendSites(make([]Site, 0, r.Faults), space, format, rng)
}

// AppendSites implements SiteAppender.
func (r RandomValue) AppendSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	for i := 0; i < r.Faults; i++ {
		s := space.SampleSite(rng, format.Bits())
		s.Payload = uint64(rng.Int63())
		buf = append(buf, s)
	}
	return buf
}

// AppendStratumSites implements StratumScenario: the first replaced
// word lands in the stratum's node (the bit position classifies the
// trial; the corruption still replaces the whole word), any further
// faults draw from the full space.
func (r RandomValue) AppendStratumSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand, node, bitLo, bitHi int) []Site {
	for i := 0; i < r.Faults; i++ {
		var s Site
		if i == 0 {
			s = space.SampleSiteIn(rng, node, bitLo, bitHi)
		} else {
			s = space.SampleSite(rng, format.Bits())
		}
		s.Payload = uint64(rng.Int63())
		buf = append(buf, s)
	}
	return buf
}

// Corrupt implements Scenario.
func (r RandomValue) Corrupt(format fixpoint.Format, _ float32, s Site) (float32, error) {
	mask := uint64(1)<<format.Bits() - 1
	return format.Decode(s.Payload & mask), nil
}

// StuckAt models a permanent-style fault surfacing transiently: the
// sampled bit of the struck value is forced to Value (0 or 1) instead of
// toggled. Stuck-at-1 on a high-order bit mirrors the paper's worst-case
// amplification; stuck-at-0 is frequently benign, which makes the pair
// useful for coverage-asymmetry studies.
type StuckAt struct {
	// Faults is the number of stuck bits per execution.
	Faults int
	// Value is the level the bit is forced to: 0 or 1.
	Value int
}

// Name implements Scenario.
func (s StuckAt) Name() string { return fmt.Sprintf("stuckat%d", s.Value) }

// Validate implements Scenario.
func (s StuckAt) Validate(fixpoint.Format) error {
	if s.Faults <= 0 {
		return fmt.Errorf("inject: stuck-at faults = %d", s.Faults)
	}
	if s.Value != 0 && s.Value != 1 {
		return fmt.Errorf("inject: stuck-at value = %d, want 0 or 1", s.Value)
	}
	return nil
}

// Sample implements Scenario.
func (s StuckAt) Sample(space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	return s.AppendSites(make([]Site, 0, s.Faults), space, format, rng)
}

// AppendSites implements SiteAppender.
func (s StuckAt) AppendSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand) []Site {
	for i := 0; i < s.Faults; i++ {
		buf = append(buf, space.SampleSite(rng, format.Bits()))
	}
	return buf
}

// AppendStratumSites implements StratumScenario: the first stuck bit
// lands in the stratum, any further faults draw from the full space.
func (s StuckAt) AppendStratumSites(buf []Site, space *FaultSpace, format fixpoint.Format, rng *rand.Rand, node, bitLo, bitHi int) []Site {
	buf = append(buf, space.SampleSiteIn(rng, node, bitLo, bitHi))
	for i := 1; i < s.Faults; i++ {
		buf = append(buf, space.SampleSite(rng, format.Bits()))
	}
	return buf
}

// Corrupt implements Scenario.
func (s StuckAt) Corrupt(format fixpoint.Format, v float32, site Site) (float32, error) {
	if site.Bit < 0 || site.Bit >= format.Bits() {
		return 0, fmt.Errorf("inject: bit %d out of range for %d-bit format", site.Bit, format.Bits())
	}
	raw := format.Encode(v)
	if s.Value == 1 {
		raw |= 1 << uint(site.Bit)
	} else {
		raw &^= 1 << uint(site.Bit)
	}
	return format.Decode(raw), nil
}

// ScenarioFactory builds a Scenario from the per-execution fault
// multiplicity (bit flips, replaced values, or stuck bits, depending on
// the scenario).
type ScenarioFactory func(faults int) (Scenario, error)

var (
	scenarioMu       sync.RWMutex
	scenarioRegistry = map[string]ScenarioFactory{}
)

// RegisterScenario adds a named scenario factory. Registering a name
// twice panics: scenario names select fault models on the command line,
// so a silent override would corrupt experiment provenance.
func RegisterScenario(name string, f ScenarioFactory) {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioRegistry[name]; dup {
		panic(fmt.Sprintf("inject: scenario %q registered twice", name))
	}
	scenarioRegistry[name] = f
}

// NewScenario builds a registered scenario by name. faults is the
// per-execution fault multiplicity (most callers pass 1).
func NewScenario(name string, faults int) (Scenario, error) {
	scenarioMu.RLock()
	f, ok := scenarioRegistry[name]
	scenarioMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownScenario, name, ScenarioNames())
	}
	return f(faults)
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarioRegistry))
	for name := range scenarioRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterScenario("bitflip", func(n int) (Scenario, error) { return BitFlips{Flips: n}, nil })
	RegisterScenario("consecutive", func(n int) (Scenario, error) { return ConsecutiveBits{Flips: n}, nil })
	RegisterScenario("randomvalue", func(n int) (Scenario, error) { return RandomValue{Faults: n}, nil })
	RegisterScenario("stuckat0", func(n int) (Scenario, error) { return StuckAt{Faults: n, Value: 0}, nil })
	RegisterScenario("stuckat1", func(n int) (Scenario, error) { return StuckAt{Faults: n, Value: 1}, nil })
}
