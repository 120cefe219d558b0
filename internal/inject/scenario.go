package inject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// ErrUnknownScenario reports a scenario name absent from the registry;
// NewScenario wraps it so callers can branch with errors.Is.
var ErrUnknownScenario = errors.New("inject: unknown scenario")

// Site is one sampled fault location: an element of a node's output
// tensor and a bit position in its stored word. Payload carries
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

// Band confines a trial's primary fault site to one stratum: a
// fault-space node (by index) and an inclusive bit band [BitLo, BitHi].
// Stratified campaigns (Campaign.RunAdaptive, stratified RunPersistent)
// pass one to Scenario.AppendSites; uniform campaigns pass nil.
type Band struct {
	Node         int
	BitLo, BitHi int
}

// SampleSite draws a fault location: with a nil band the element is
// uniform over all output elements and the bit uniform over [0, bits);
// with a band the element is uniform over the band's node and the bit
// uniform over the band. Either way the draw consumes exactly two values
// from the stream, so custom scenarios that reuse it inherit the
// determinism contract for free.
func (fs *FaultSpace) SampleSite(rng *rand.Rand, bits int, band *Band) Site {
	node, elem, bit := fs.draw(rng, bits, band)
	return Site{Node: fs.nodes[node], Elem: elem, Bit: bit}
}

// draw is SampleSite by node index.
func (fs *FaultSpace) draw(rng *rand.Rand, bits int, band *Band) (node, elem, bit int) {
	if band != nil {
		return band.Node, rng.Intn(fs.sizes[band.Node]), band.BitLo + rng.Intn(band.BitHi-band.BitLo+1)
	}
	k := rng.Int63n(fs.total)
	node = len(fs.nodes) - 1 // unreachable if sizes sum to total
	for i, sz := range fs.sizes {
		if k < int64(sz) {
			node, elem = i, int(k)
			break
		}
		k -= int64(sz)
	}
	return node, elem, rng.Intn(bits)
}

// Scenario is a pluggable hardware-fault model over a stored word whose
// width the backend decides: the fixed-point width of the fp32 datapath
// (Campaign.Format), or 8 on the int8 backend. It decides where faults
// strike (site sampling) and how a struck word is corrupted; the engine
// encodes values into words and decodes them back. The paper's
// single-bit, independent multi-bit, and consecutive multi-bit flip
// models are Scenario implementations, as are the extended models
// (random-value replacement, stuck-at bits, bursts); external packages
// can implement and register their own.
//
// A scenario must be stateless across trials: AppendSites is called
// once per trial with that trial's private RNG stream, and Corrupt must
// depend only on its arguments. That keeps campaign trials
// embarrassingly parallel and bit-reproducible at every worker count.
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Validate rejects configurations that cannot run.
	Validate() error
	// AppendSites appends one execution's fault sites, with bit
	// positions in [0, bits), to buf and returns the extended slice.
	// Campaign workers pass one buffer across trials, so a scenario that
	// only appends keeps the trial loop allocation-free. A nil band
	// samples the whole space; a non-nil one confines the primary site
	// to its node and bit band while any further sites draw from the
	// whole space.
	AppendSites(buf []Site, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site
	// Corrupt maps a clean bits-wide word to the faulty word at one site.
	Corrupt(word uint64, bits int, s Site) (uint64, error)
}

// checkBit rejects a site bit outside a bits-wide word.
func checkBit(bits int, s Site) error {
	if s.Bit < 0 || s.Bit >= bits {
		return fmt.Errorf("inject: bit %d out of range for %d-bit word", s.Bit, bits)
	}
	return nil
}

// flipBit is the paper's transient-fault primitive: the site's bit of
// the word toggled.
func flipBit(word uint64, bits int, s Site) (uint64, error) {
	if err := checkBit(bits, s); err != nil {
		return 0, err
	}
	return word ^ 1<<uint(s.Bit), nil
}

// appendIndependent appends n independent sites, the first confined to
// band when it is non-nil.
func appendIndependent(buf []Site, n int, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site {
	for i := 0; i < n; i++ {
		buf = append(buf, space.SampleSite(rng, bits, band))
		band = nil
	}
	return buf
}

// DefaultScenario returns the paper's primary fault model: one random
// bit flip per execution.
func DefaultScenario() Scenario { return BitFlips{Flips: 1} }

// BitFlips is the paper's primary fault model (§V-A) and its §VI-B
// independent multi-bit extension: Flips independent (node, element,
// bit) sites per execution, each flipping one bit. Independent draws may
// collide on the same (element, bit); two flips of one bit cancel, which
// is the faithful XOR semantics of independent upsets (pinned by
// TestIndependentFlipsMayCollide). On the int8 backend bit 7 is both
// sign and top magnitude bit of the two's-complement word, so the
// worst-case amplification is bounded by the tensor's quantization
// range — the property that makes quantization itself a mild range
// restriction.
type BitFlips struct {
	// Flips is the number of independent bit flips per execution
	// (1 = the paper's primary single-bit model; 2-5 for §VI-B).
	Flips int
}

// Name implements Scenario.
func (b BitFlips) Name() string { return "bitflip" }

// Validate implements Scenario.
func (b BitFlips) Validate() error {
	if b.Flips <= 0 {
		return fmt.Errorf("inject: bit flips = %d", b.Flips)
	}
	return nil
}

// AppendSites implements Scenario.
func (b BitFlips) AppendSites(buf []Site, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site {
	return appendIndependent(buf, b.Flips, space, bits, rng, band)
}

// Corrupt implements Scenario.
func (b BitFlips) Corrupt(word uint64, bits int, s Site) (uint64, error) {
	return flipBit(word, bits, s)
}

// ConsecutiveBits is §VI-B's alternative multi-bit model: all Flips land
// in consecutive bit positions of a single value, instead of independent
// flips across multiple values (the model the paper argues is the more
// damaging and hence conservative choice). Flips is clamped to the word
// width, and the start bit is drawn so the run never crosses the word
// boundary.
type ConsecutiveBits struct {
	// Flips is the length of the consecutive bit run.
	Flips int
}

// Name implements Scenario.
func (c ConsecutiveBits) Name() string { return "consecutive" }

// Validate implements Scenario.
func (c ConsecutiveBits) Validate() error {
	if c.Flips <= 0 {
		return fmt.Errorf("inject: bit flips = %d", c.Flips)
	}
	return nil
}

// AppendSites implements Scenario. Under a band the run's start bit is
// drawn from the band, clamped so the run never crosses the word
// boundary (a band at the very top of the word starts the run at
// bits-Flips, which still covers the band's bits).
func (c ConsecutiveBits) AppendSites(buf []Site, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site {
	k := min(c.Flips, bits)
	if band != nil {
		hi := min(band.BitHi, bits-k)
		clamped := Band{Node: band.Node, BitLo: min(band.BitLo, hi), BitHi: hi}
		band = &clamped
	}
	s := space.SampleSite(rng, bits-k+1, band)
	for b := 0; b < k; b++ {
		buf = append(buf, Site{Node: s.Node, Elem: s.Elem, Bit: s.Bit + b})
	}
	return buf
}

// Corrupt implements Scenario.
func (c ConsecutiveBits) Corrupt(word uint64, bits int, s Site) (uint64, error) {
	return flipBit(word, bits, s)
}

// RandomValue models a fault that destroys a whole word: each struck
// element is replaced by a uniformly random bit pattern of the word (the
// "random value replacement" corruption used by several fault-injection
// frameworks as a coarser upper bound on bit flips).
type RandomValue struct {
	// Faults is the number of values replaced per execution.
	Faults int
}

// Name implements Scenario.
func (r RandomValue) Name() string { return "randomvalue" }

// Validate implements Scenario.
func (r RandomValue) Validate() error {
	if r.Faults <= 0 {
		return fmt.Errorf("inject: random-value faults = %d", r.Faults)
	}
	return nil
}

// AppendSites implements Scenario. The replacement word is drawn here,
// into the site payload, so Corrupt stays deterministic. Under a band
// the first replaced word lands in the band's node (the bit position
// classifies the trial; the corruption still replaces the whole word).
func (r RandomValue) AppendSites(buf []Site, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site {
	for i := 0; i < r.Faults; i++ {
		s := space.SampleSite(rng, bits, band)
		s.Payload = uint64(rng.Int63())
		buf = append(buf, s)
		band = nil
	}
	return buf
}

// Corrupt implements Scenario.
func (r RandomValue) Corrupt(_ uint64, bits int, s Site) (uint64, error) {
	return s.Payload & (1<<uint(bits) - 1), nil
}

// StuckAt models a permanent-style fault surfacing transiently: the
// sampled bit of the struck word is forced to Value (0 or 1) instead of
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
func (s StuckAt) Validate() error {
	if s.Faults <= 0 {
		return fmt.Errorf("inject: stuck-at faults = %d", s.Faults)
	}
	if s.Value != 0 && s.Value != 1 {
		return fmt.Errorf("inject: stuck-at value = %d, want 0 or 1", s.Value)
	}
	return nil
}

// AppendSites implements Scenario.
func (s StuckAt) AppendSites(buf []Site, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site {
	return appendIndependent(buf, s.Faults, space, bits, rng, band)
}

// Corrupt implements Scenario.
func (s StuckAt) Corrupt(word uint64, bits int, site Site) (uint64, error) {
	if err := checkBit(bits, site); err != nil {
		return 0, err
	}
	if s.Value == 1 {
		return word | 1<<uint(site.Bit), nil
	}
	return word &^ (1 << uint(site.Bit)), nil
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
	bitflip := func(n int) (Scenario, error) { return BitFlips{Flips: n}, nil }
	stuckat1 := func(n int) (Scenario, error) { return StuckAt{Faults: n, Value: 1}, nil }
	burst := func(n int) (Scenario, error) { return Burst{Length: n}, nil }
	RegisterScenario("bitflip", bitflip)
	RegisterScenario("consecutive", func(n int) (Scenario, error) { return ConsecutiveBits{Flips: n}, nil })
	RegisterScenario("randomvalue", func(n int) (Scenario, error) { return RandomValue{Faults: n}, nil })
	RegisterScenario("stuckat0", func(n int) (Scenario, error) { return StuckAt{Faults: n, Value: 0}, nil })
	RegisterScenario("stuckat1", stuckat1)
	// The factory's fault-multiplicity argument is the burst length.
	RegisterScenario("burst", burst)
	// The -int8 names date from when int8 faults had scenarios of their
	// own; they stay registered so stored job specs and scripts resolve.
	RegisterScenario("bitflip-int8", bitflip)
	RegisterScenario("stuckat-int8", stuckat1)
	RegisterScenario("burst-int8", burst)
}
