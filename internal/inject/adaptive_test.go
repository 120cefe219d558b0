package inject

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ranger/internal/fixpoint"
)

func TestBuildStrata(t *testing.T) {
	fs := &FaultSpace{nodes: []string{"a", "b"}, sizes: []int{300, 100}, total: 400}
	defs := buildStrata(fs, 32, 4)
	if len(defs) != 8 {
		t.Fatalf("strata = %d, want 8", len(defs))
	}
	// High bits first, bands tile [0,32), weights sum to 1.
	if defs[0].BitLo != 24 || defs[0].BitHi != 31 || defs[3].BitLo != 0 || defs[3].BitHi != 7 {
		t.Fatalf("bands = %+v", defs[:4])
	}
	var wsum float64
	for _, d := range defs {
		wsum += d.weight
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", wsum)
	}
	// Node a holds 3/4 of the elements, so each of its bands weighs
	// (3/4)·(1/4).
	if math.Abs(defs[0].weight-0.75/4) > 1e-12 {
		t.Fatalf("weight = %v", defs[0].weight)
	}
	// Bands clamp to the bit width; uneven splits give the extra bit to
	// the high bands.
	if defs := buildStrata(fs, 8, 16); len(defs) != 16 {
		t.Fatalf("clamped strata = %d, want 16 (8 bands x 2 nodes)", len(defs))
	}
	defs = buildStrata(fs, 8, 3)
	if defs[0].BitHi-defs[0].BitLo+1 != 3 || defs[2].BitHi-defs[2].BitLo+1 != 2 {
		t.Fatalf("uneven bands = %+v", defs[:3])
	}
}

func TestStratumSamplingStaysInStratum(t *testing.T) {
	fs := &FaultSpace{nodes: []string{"a", "b"}, sizes: []int{10, 20}, total: 30}
	rng := rand.New(rand.NewSource(3))
	for _, scen := range []Scenario{
		BitFlips{Flips: 1}, BitFlips{Flips: 3}, StuckAt{Faults: 2, Value: 1},
		RandomValue{Faults: 1}, ConsecutiveBits{Flips: 2},
	} {
		for i := 0; i < 200; i++ {
			sites := scen.AppendSites(nil, fs, fixpoint.Q32.Bits(), rng, &Band{Node: 1, BitLo: 24, BitHi: 29})
			if len(sites) == 0 {
				t.Fatalf("%s: no sites", scen.Name())
			}
			s := sites[0]
			if s.Node != "b" || s.Elem < 0 || s.Elem >= 20 {
				t.Fatalf("%s: primary site outside stratum node: %+v", scen.Name(), s)
			}
			if s.Bit < 24 || s.Bit > 29 {
				t.Fatalf("%s: primary bit %d outside band [24,29]", scen.Name(), s.Bit)
			}
		}
	}
	// A consecutive run whose band touches the word top clamps its start
	// so it never crosses the boundary.
	for i := 0; i < 200; i++ {
		sites := ConsecutiveBits{Flips: 4}.AppendSites(nil, fs, fixpoint.Q32.Bits(), rng, &Band{Node: 0, BitLo: 30, BitHi: 31})
		for _, s := range sites {
			if s.Bit < 0 || s.Bit > 31 {
				t.Fatalf("consecutive run crossed the word: %+v", sites)
			}
		}
	}
}

func TestAdaptiveValidation(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	if _, err := (&Campaign{Model: m, Trials: 10}).NewAdaptiveRun(feeds); err == nil {
		t.Fatal("want mode error for uniform campaign")
	}
	c := &Campaign{Model: m, Trials: 10, Adaptive: AdaptiveStratified, CITarget: 1.5}
	if _, err := c.NewAdaptiveRun(feeds); err == nil {
		t.Fatal("want CI target range error")
	}
	c = &Campaign{Model: m, Trials: 10, Adaptive: AdaptiveStratified, Strata: -1}
	if _, err := c.NewAdaptiveRun(feeds); err == nil {
		t.Fatal("want strata error")
	}
	// Run/RunSlice reject adaptive campaigns; RunAdaptive is the entry.
	c = &Campaign{Model: m, Trials: 10, Adaptive: AdaptiveStratified}
	if _, err := c.Run(context.Background(), feeds); err == nil {
		t.Fatal("want RunSlice adaptive rejection")
	}
}

func TestAdaptiveRunConverges(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	c := &Campaign{
		Model:    m,
		Trials:   400, // budget: 800 across 2 inputs
		Seed:     7,
		Adaptive: AdaptiveStratified,
		CITarget: 0.25, // loose target so the run stops well under budget
		Strata:   2,
	}
	out, err := c.RunAdaptive(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials == 0 || int64(out.Trials) > out.Budget {
		t.Fatalf("trials = %d, budget %d", out.Trials, out.Budget)
	}
	sum := 0
	for _, s := range out.Strata {
		sum += s.Trials
		if s.SDCs > s.Trials {
			t.Fatalf("stratum %+v", s)
		}
	}
	if sum != out.Trials {
		t.Fatalf("stratum trials sum %d != %d", sum, out.Trials)
	}
	if out.Converged {
		for _, s := range out.Strata {
			if !s.Converged {
				t.Fatalf("converged run with open stratum %+v", s)
			}
			if s.Estimate.CI95 > out.CITarget {
				t.Fatalf("stratum CI %v above target %v", s.Estimate.CI95, out.CITarget)
			}
		}
	}
	if out.Estimate.Rate < 0 || out.Estimate.Rate > 1 || out.Estimate.CI95 <= 0 {
		t.Fatalf("estimate = %+v", out.Estimate)
	}
}

func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	run := func(workers int, mode SamplingMode) AdaptiveOutcome {
		c := &Campaign{
			Model:    m,
			Trials:   96,
			Seed:     11,
			Adaptive: mode,
			CITarget: 0.2,
			Strata:   2,
			Workers:  workers,
		}
		out, err := c.RunAdaptive(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, mode := range []SamplingMode{AdaptiveStratified, AdaptiveWorstCase} {
		base := run(1, mode)
		for _, workers := range []int{2, 4, 0} {
			if got := run(workers, mode); !reflect.DeepEqual(base, got) {
				t.Fatalf("mode %d: outcome differs at workers=%d:\n%+v\nvs\n%+v",
					mode, workers, base, got)
			}
		}
	}
}

func TestAdaptiveWorstCasePrioritizesHighBits(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{
		Model:    m,
		Trials:   64,
		Seed:     5,
		Adaptive: AdaptiveWorstCase,
		CITarget: 0.01, // unreachable in one round: ordering decides everything
		Strata:   4,
	}
	ar, err := c.NewAdaptiveRun(feeds)
	if err != nil {
		t.Fatal(err)
	}
	ar.RoundTrials = 64
	plan := ar.allocateRound()
	if len(plan) != 64 {
		t.Fatalf("plan = %d items", len(plan))
	}
	// With no evidence every Wilson upper bound is 1, so the tie-break
	// applies: the first quantum must go to a top-band stratum.
	first := ar.defs[plan[0].stratum]
	maxHi := 0
	for _, d := range ar.defs {
		if d.BitHi > maxHi {
			maxHi = d.BitHi
		}
	}
	if first.BitHi != maxHi {
		t.Fatalf("worst-case first stratum band [%d,%d], want top band (hi %d)", first.BitLo, first.BitHi, maxHi)
	}
}

func TestAdaptiveReplayResumes(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	newC := func() *Campaign {
		return &Campaign{
			Model: m, Trials: 96, Seed: 13,
			Adaptive: AdaptiveStratified, CITarget: 0.2, Strata: 2,
		}
	}
	// Full run, recording every trial.
	var recs []TrialResult
	c := newC()
	c.OnTrial = func(tr TrialResult) { recs = append(recs, tr) }
	full, err := func() (AdaptiveOutcome, error) {
		ar, err := c.NewAdaptiveRun(feeds)
		if err != nil {
			return AdaptiveOutcome{}, err
		}
		ar.RoundTrials = 32
		for !ar.Done() {
			if _, err := ar.NextRound(context.Background()); err != nil {
				return AdaptiveOutcome{}, err
			}
		}
		return ar.Result(), nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != full.Trials || len(recs) <= 32 {
		t.Fatalf("recorded %d trials of %d (need >1 round)", len(recs), full.Trials)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	// Resume: replay the first round's records into a fresh run, then
	// finish live. The result must be byte-identical.
	ar2, err := newC().NewAdaptiveRun(feeds)
	if err != nil {
		t.Fatal(err)
	}
	ar2.RoundTrials = 32
	for _, r := range recs[:32] {
		if err := ar2.ReplayTrial(r.Stratum, r.Top1SDC, r.Top5SDC, r.IsRegression, r.Deviation); err != nil {
			t.Fatal(err)
		}
	}
	for !ar2.Done() {
		if _, err := ar2.NextRound(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got := ar2.Result()
	// Rounds counts only live rounds, so mask it before comparing.
	got.Rounds, full.Rounds = 0, 0
	if !reflect.DeepEqual(full, got) {
		t.Fatalf("resumed outcome differs:\n%+v\nvs\n%+v", full, got)
	}
	// Replay after a live round is rejected.
	if err := ar2.ReplayTrial(0, false, false, false, 0); err == nil {
		t.Fatal("want replay-after-live error")
	}
}

func TestUniformTrialsToTarget(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{
		Model: m, Trials: 2000, Seed: 21,
		Adaptive: AdaptiveStratified, CITarget: 0.22, Strata: 2,
	}
	adaptive, err := c.RunAdaptive(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	uniform, uconv, err := c.UniformTrialsToTarget(context.Background(), feeds, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Converged {
		t.Fatalf("adaptive did not converge in %d trials", adaptive.Trials)
	}
	// The point of the engine: same per-stratum stopping criterion, far
	// fewer trials. Uniform sampling starves small strata, so either it
	// needs more trials or it never converges within the cap.
	if uconv && uniform < int64(adaptive.Trials) {
		t.Fatalf("uniform converged in %d < adaptive %d", uniform, adaptive.Trials)
	}
}

func TestCoverageOfSDCsUndefined(t *testing.T) {
	// No SDCs observed: coverage is undefined, not a vacuous 100%.
	var d DetectorOutcome
	if c, ok := d.CoverageOfSDCsOK(); ok || c != 0 {
		t.Fatalf("zero-SDC coverage = (%v, %v), want undefined", c, ok)
	}
	if !math.IsNaN(d.CoverageOfSDCs()) {
		t.Fatalf("zero-SDC coverage = %v, want NaN", d.CoverageOfSDCs())
	}
	// Per-trial labels count regressor SDCs too.
	d = DetectorOutcome{TrialSDC: []bool{true, false, true}, UncorrectedSDC: 1}
	if c, ok := d.CoverageOfSDCsOK(); !ok || math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("coverage = (%v, %v), want 0.5", c, ok)
	}
	// Hand-built values without labels fall back to Top1SDC.
	d = DetectorOutcome{Outcome: Outcome{Top1SDC: 4}, UncorrectedSDC: 1}
	if c, ok := d.CoverageOfSDCsOK(); !ok || math.Abs(c-0.75) > 1e-12 {
		t.Fatalf("fallback coverage = (%v, %v), want 0.75", c, ok)
	}
}
