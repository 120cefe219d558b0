// Golden determinism suite for adaptive stratified campaigns: on the
// fp32 backend (classifier and regressor) and the int8 quantized
// backend, an adaptive campaign must produce an AdaptiveOutcome —
// aggregate fold, per-stratum evidence, and post-stratified estimate —
// byte-identical at every worker count, in both the stratified and
// worst-case-directed modes. This is the adaptive twin of the
// incremental golden suites: fixed seed ⇒ identical outcomes,
// regardless of execution shape.
package ranger_test

import (
	"context"
	"reflect"
	"testing"

	"ranger"
	"ranger/internal/models"
)

// adaptiveGoldenWorkers are the worker counts swept against the
// single-worker reference.
var adaptiveGoldenWorkers = []int{1, 2, 0}

func adaptiveGoldenCampaign(m *models.Model, mode ranger.SamplingMode, workers int) *ranger.Campaign {
	return &ranger.Campaign{
		Model: m, Trials: 48, Seed: 2027,
		Workers:  workers,
		Adaptive: mode, CITarget: 0.2, Strata: 2,
	}
}

// TestGoldenAdaptiveCampaignDeterminism sweeps a classifier (lenet) and
// a regressor (dave) on the fp32 backend.
func TestGoldenAdaptiveCampaignDeterminism(t *testing.T) {
	for _, name := range []string{"lenet", "dave"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			feeds := campaignFeeds(t, m)
			for _, mode := range []ranger.SamplingMode{ranger.AdaptiveStratified, ranger.AdaptiveWorstCase} {
				run := func(workers int) ranger.AdaptiveOutcome {
					out, err := adaptiveGoldenCampaign(m, mode, workers).RunAdaptive(context.Background(), feeds)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				want := run(1)
				if want.Trials == 0 || len(want.Strata) == 0 {
					t.Fatalf("mode %v: empty adaptive outcome %+v", mode, want)
				}
				for _, workers := range adaptiveGoldenWorkers {
					got := run(workers)
					outcomesEqual(t, name, want.Outcome, got.Outcome)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("mode %v workers=%d: adaptive outcome differs:\n%+v\nvs\n%+v",
							mode, workers, got, want)
					}
				}
			}
		})
	}
}

// TestGoldenAdaptiveInt8CampaignDeterminism is the int8 twin: adaptive
// campaigns striking stored int8 words must also be byte-identical at
// every worker count.
func TestGoldenAdaptiveInt8CampaignDeterminism(t *testing.T) {
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	feeds := campaignFeeds(t, m)
	calib, err := ranger.CalibrateModel(m, len(feeds), func(i int) (ranger.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ranger.AdaptiveOutcome {
		c := adaptiveGoldenCampaign(m, ranger.AdaptiveStratified, workers)
		c.Scenario = ranger.BitFlipInt8{Flips: 1}
		c.Calibration = calib
		out, err := c.RunAdaptive(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	if want.Trials == 0 {
		t.Fatalf("empty int8 adaptive outcome %+v", want)
	}
	// int8 campaigns stratify the stored word's 8 bits, not the fp32
	// datapath's 32.
	for _, sr := range want.Strata {
		if sr.BitHi > 7 {
			t.Fatalf("int8 stratum spans bits %d-%d", sr.BitLo, sr.BitHi)
		}
	}
	for _, workers := range adaptiveGoldenWorkers {
		got := run(workers)
		outcomesEqual(t, "lenet int8", want.Outcome, got.Outcome)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: int8 adaptive outcome differs", workers)
		}
	}
}

// TestGoldenAdaptiveOutcomePinned pins one AdaptiveOutcome (lenet,
// worst-case ordering, two rounds over two inputs) to its literal value
// at one and at the default worker count, so a drift that is the same at
// every worker count fails too.
func TestGoldenAdaptiveOutcomePinned(t *testing.T) {
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	feeds := campaignFeeds(t, m)
	want := stratifiedPin{
		strata: "9/32 0/0 12/32 0/0 20/32 0/0 19/32 0/0 7/32 0/0 14/32 0/0 20/32 0/0 26/32 0/0 24/32 0/0 13/32 0/0 20/32 0/0 20/32 0/0 6/16 0/0 0/0 0/0 0/0 0/0",
		rounds: 2, digest: 0xf9e2341ab03765e7,
	}
	for _, workers := range []int{1, 0} {
		c := adaptiveGoldenCampaign(m, ranger.AdaptiveWorstCase, workers)
		c.Trials = 200
		out, err := c.RunAdaptive(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		if out.Trials != 400 || out.Top1SDC != 210 || out.Top5SDC != 54 {
			t.Fatalf("workers=%d: outcome drifted from the pin: %+v", workers, out.Outcome)
		}
		if got := stratifiedPinOf(t, out.Strata, out.Rounds, out); got != want {
			t.Fatalf("workers=%d: adaptive outcome drifted from the pin:\n got %#v\nwant %#v", workers, got, want)
		}
	}
}
