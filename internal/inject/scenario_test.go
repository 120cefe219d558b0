package inject

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"ranger/internal/fixpoint"
)

func singleElementSpace() *FaultSpace {
	return &FaultSpace{nodes: []string{"n"}, sizes: []int{1}, total: 1}
}

func TestScenarioRegistryResolvesAllBuiltins(t *testing.T) {
	names := ScenarioNames()
	want := []string{"bitflip", "consecutive", "randomvalue", "stuckat0", "stuckat1"}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("scenario %q not registered (have %v)", w, names)
		}
	}
	for _, name := range names {
		s, err := NewScenario(name, 2)
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%q.Validate: %v", name, err)
		}
	}
	if _, err := NewScenario("no-such-scenario", 1); err == nil {
		t.Fatal("want unknown-scenario error")
	}
}

// TestConsecutiveSamplingAtWordBoundary covers ConsecutiveBits with the
// run length at and beyond the format width: the run must stay inside the
// word (the start bit is drawn from [0, width-k]), and a request longer
// than the word clamps to the full word starting at bit 0.
func TestConsecutiveSamplingAtWordBoundary(t *testing.T) {
	space := singleElementSpace()
	for _, format := range []fixpoint.Format{fixpoint.Q16, fixpoint.Q32} {
		width := format.Bits()
		for _, flips := range []int{width - 1, width, width + 5} {
			scen := ConsecutiveBits{Flips: flips}
			rng := rand.New(rand.NewSource(int64(flips)))
			for trial := 0; trial < 200; trial++ {
				sites := scen.AppendSites(nil, space, format.Bits(), rng, nil)
				k := flips
				if k > width {
					k = width
				}
				if len(sites) != k {
					t.Fatalf("%v flips=%d: got %d sites, want %d", format, flips, len(sites), k)
				}
				if k == width && sites[0].Bit != 0 {
					t.Fatalf("%v flips=%d: full-word run must start at bit 0, got %d", format, flips, sites[0].Bit)
				}
				for i, s := range sites {
					if s.Bit < 0 || s.Bit >= width {
						t.Fatalf("%v flips=%d: bit %d outside word", format, flips, s.Bit)
					}
					if i > 0 && (s.Bit != sites[i-1].Bit+1 || s.Elem != sites[0].Elem) {
						t.Fatalf("%v flips=%d: run not consecutive on one element: %+v", format, flips, sites)
					}
				}
			}
		}
	}
}

// TestIndependentFlipsMayCollide pins the independent multi-bit
// semantics: BitFlips draws each (element, bit) site independently, so
// two flips may land on the same site — and, applied as XORs, cancel.
// This matches the physical model of independent upsets; campaigns must
// not dedupe the draws, or the fault multiplicity distribution would be
// biased at small fault spaces.
func TestIndependentFlipsMayCollide(t *testing.T) {
	space := singleElementSpace() // one element: collisions only need a bit match
	format := fixpoint.Q16
	scen := BitFlips{Flips: format.Bits() + 1} // pigeonhole: > width draws over one word
	rng := rand.New(rand.NewSource(1))
	sites := scen.AppendSites(nil, space, format.Bits(), rng, nil)
	if len(sites) != format.Bits()+1 {
		t.Fatalf("sites = %d, want %d (no dedupe)", len(sites), format.Bits()+1)
	}
	seen := map[[2]int]bool{}
	collided := false
	for _, s := range sites {
		key := [2]int{s.Elem, s.Bit}
		if seen[key] {
			collided = true
		}
		seen[key] = true
	}
	if !collided {
		t.Fatal("pigeonhole violated: 17 draws over a 16-bit word must collide")
	}
	// Two flips of the same bit cancel: corrupting twice restores the value.
	v := float32(3.25)
	once, err := corruptFloat(scen, format, v, Site{Bit: 5})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := corruptFloat(scen, format, once, Site{Bit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if twice != format.Quantize(v) {
		t.Fatalf("double flip did not cancel: %v -> %v -> %v", v, once, twice)
	}
}

func TestRandomValueScenarioReplacesWord(t *testing.T) {
	space := singleElementSpace()
	format := fixpoint.Q32
	scen := RandomValue{Faults: 1}
	rng := rand.New(rand.NewSource(7))
	changed := 0
	for trial := 0; trial < 50; trial++ {
		sites := scen.AppendSites(nil, space, format.Bits(), rng, nil)
		if len(sites) != 1 {
			t.Fatalf("sites = %d", len(sites))
		}
		v, err := corruptFloat(scen, format, 1.5, sites[0])
		if err != nil {
			t.Fatal(err)
		}
		// The replacement depends only on the payload, not the clean value.
		v2, err := corruptFloat(scen, format, -99, sites[0])
		if err != nil {
			t.Fatal(err)
		}
		if v != v2 {
			t.Fatalf("random-value corruption not payload-deterministic: %v vs %v", v, v2)
		}
		if v != format.Quantize(1.5) {
			changed++
		}
		if float64(v) > format.MaxValue() || float64(v) < format.MinValue() {
			t.Fatalf("replacement %v outside representable range", v)
		}
	}
	if changed == 0 {
		t.Fatal("random replacement never changed the value")
	}
}

func TestStuckAtScenarioForcesBit(t *testing.T) {
	format := fixpoint.Q32
	// Stuck-at-1 on the sign bit of a positive value flips it negative;
	// stuck-at-0 on an already-zero bit is a no-op.
	s1 := StuckAt{Faults: 1, Value: 1}
	signBit := format.Bits() - 1
	v, err := corruptFloat(s1, format, 2, Site{Bit: signBit})
	if err != nil {
		t.Fatal(err)
	}
	if v >= 0 {
		t.Fatalf("stuck-at-1 sign bit left value non-negative: %v", v)
	}
	again, err := corruptFloat(s1, format, v, Site{Bit: signBit})
	if err != nil {
		t.Fatal(err)
	}
	if again != v {
		t.Fatalf("stuck-at is not idempotent: %v vs %v", again, v)
	}
	s0 := StuckAt{Faults: 1, Value: 0}
	v0, err := corruptFloat(s0, format, 2, Site{Bit: signBit})
	if err != nil {
		t.Fatal(err)
	}
	if v0 != format.Quantize(2) {
		t.Fatalf("stuck-at-0 on a clear bit changed the value: %v", v0)
	}
	if err := (StuckAt{Faults: 1, Value: 7}).Validate(); err == nil {
		t.Fatal("want invalid stuck-at value error")
	}
}

// TestCorruptFloatRoundsWideQ32Words pins a known limit of the fp32
// datapath: corruptFloat decodes the corrupted fixed-point word back
// into a float32, which keeps 24 significant bits, while a Q32 word of
// magnitude 2^14 or more holds 25 or more. Flipping bit 0 (2^-10) of
// 16384 gives 16384+2^-10, a tie that rounds back to 16384, so the fault
// is stored as the clean value and reads as masked; the same flip of
// 8192 survives. A datapath that keeps the corrupted word must change
// this test on purpose.
func TestCorruptFloatRoundsWideQ32Words(t *testing.T) {
	format := fixpoint.Q32
	flip := BitFlips{Flips: 1}
	wide, err := corruptFloat(flip, format, 1<<14, Site{Bit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if wide != 1<<14 {
		t.Fatalf("bit 0 of 16384 decoded to %v, want the clean 16384 (float32 rounding)", wide)
	}
	narrow, err := corruptFloat(flip, format, 1<<13, Site{Bit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := float32(1<<13) + 1.0/1024; narrow != want {
		t.Fatalf("bit 0 of 8192 decoded to %v, want %v", narrow, want)
	}
}

func TestCampaignRunsExtendedScenarios(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	for _, name := range []string{"randomvalue", "stuckat1"} {
		scen, err := NewScenario(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{Model: m, Scenario: scen, Trials: 10, Seed: 3}
		out, err := c.Run(context.Background(), feeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Trials != 10 {
			t.Fatalf("%s: trials = %d", name, out.Trials)
		}
	}
}

// bogusSiteScenario samples a site whose element index can never fit
// the struck tensor, modelling a fault space built against shapes the
// execution does not reproduce.
type bogusSiteScenario struct{ node string }

func (b bogusSiteScenario) Name() string    { return "bogus-site" }
func (b bogusSiteScenario) Validate() error { return nil }
func (b bogusSiteScenario) AppendSites(buf []Site, _ *FaultSpace, _ int, _ *rand.Rand, _ *Band) []Site {
	return append(buf, Site{Node: b.node, Elem: 1 << 30, Bit: 0})
}
func (b bogusSiteScenario) Corrupt(word uint64, _ int, _ Site) (uint64, error) {
	return word, nil
}

// TestShapeMismatchSurfacesError covers the former silent clamp: a
// sampled site past the struck tensor's size indicates a
// fault-space/shape mismatch and must fail the campaign — through the
// one shared typed error on every backend — not be redirected to the
// last element.
func TestShapeMismatchSurfacesError(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	fs := planFaultSpace(t, m, feeds[0], nil, nil)
	scen := bogusSiteScenario{node: fs.Nodes()[0]}
	c := &Campaign{Model: m, Scenario: scen, Trials: 1, Seed: 1}
	if _, err := c.Run(context.Background(), feeds); !errors.Is(err, ErrFaultSpaceMismatch) {
		t.Fatalf("want ErrFaultSpaceMismatch, got %v", err)
	}
	// Detector path shares the same typed error.
	c.Detector = &uncloneableDetector{}
	if _, err := c.RunWithDetector(context.Background(), feeds); !errors.Is(err, ErrFaultSpaceMismatch) {
		t.Fatalf("detector path: want ErrFaultSpaceMismatch, got %v", err)
	}
}

// TestCampaignCancellation is the acceptance check for cancellable
// campaigns: cancelling the context mid-campaign makes Run return
// promptly with ctx.Err() instead of completing the remaining trials.
func TestCampaignCancellation(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	c := &Campaign{
		Model:  m,
		Trials: 10_000, // far more than could run quickly
		Seed:   1,
		OnTrial: func(TrialResult) {
			if seen.Add(1) == 3 {
				cancel() // cancel from inside the stream, mid-campaign
			}
		},
	}
	_, err := c.Run(ctx, feeds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= 10_000 {
		t.Fatalf("campaign ran to completion (%d trials) despite cancellation", n)
	}
}

func TestRunWithDetectorCancellation(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Campaign{Model: m, Trials: 100, Seed: 1, Detector: &countingDetector{threshold: 1e6}}
	_, err := c.RunWithDetector(ctx, feeds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamingDeliversEveryTrial checks the per-trial streaming path:
// every (input, trial) pair is delivered exactly once and the streamed
// verdicts agree with the folded Outcome.
func TestStreamingDeliversEveryTrial(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	const trials = 12
	got := make(map[[2]int]TrialResult)
	top1 := 0
	c := &Campaign{
		Model:   m,
		Trials:  trials,
		Seed:    77,
		Workers: 4,
		OnTrial: func(tr TrialResult) {
			key := [2]int{tr.Input, tr.Trial}
			if _, dup := got[key]; dup {
				t.Errorf("trial %v streamed twice", key)
			}
			got[key] = tr
			if tr.Top1SDC {
				top1++
			}
		},
	}
	out, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(feeds)*trials {
		t.Fatalf("streamed %d trials, want %d", len(got), len(feeds)*trials)
	}
	if top1 != out.Top1SDC {
		t.Fatalf("streamed top-1 SDCs %d != folded %d", top1, out.Top1SDC)
	}
}
