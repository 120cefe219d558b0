// Golden equivalence suite for incremental fault campaigns: for every
// zoo architecture, on the fp32 and int8 backends, at 1/2/default
// workers, a suffix-replay campaign must produce an Outcome
// byte-identical to full per-trial replay. Full replay is itself pinned
// to the pre-plan executor by the inject package's outcome pin, so this
// suite anchors the entire incremental path to the original semantics.
package ranger_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ranger"
	"ranger/internal/data"
	"ranger/internal/models"
	"ranger/internal/train"
)

// campaignGoldenTrials keeps the sweep fast: mechanics (site sampling,
// replay boundaries, depth grouping, reduction order) are fully
// exercised by a handful of trials per input.
const campaignGoldenTrials = 12

func campaignFeeds(t *testing.T, m *models.Model) []ranger.Feeds {
	t.Helper()
	ds, err := train.DatasetByName(m.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return []ranger.Feeds{
		{m.Input: ds.Sample(data.Train, 0).X},
		{m.Input: ds.Sample(data.Train, 1).X},
	}
}

func outcomesEqual(t *testing.T, ctxt string, want, got ranger.Outcome) {
	t.Helper()
	if want.Trials != got.Trials || want.Top1SDC != got.Top1SDC || want.Top5SDC != got.Top5SDC {
		t.Fatalf("%s: outcome %+v != %+v", ctxt, got, want)
	}
	if len(want.Deviations) != len(got.Deviations) {
		t.Fatalf("%s: %d deviations != %d", ctxt, len(got.Deviations), len(want.Deviations))
	}
	for i := range want.Deviations {
		if math.Float64bits(want.Deviations[i]) != math.Float64bits(got.Deviations[i]) {
			t.Fatalf("%s: deviation %d: %g != %g", ctxt, i, got.Deviations[i], want.Deviations[i])
		}
	}
}

// TestGoldenIncrementalCampaignMatchesFullReplay sweeps the zoo on the
// fp32 backend.
func TestGoldenIncrementalCampaignMatchesFullReplay(t *testing.T) {
	for _, name := range goldenModels(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			feeds := campaignFeeds(t, m)
			run := func(mode ranger.IncrementalMode, workers int) ranger.Outcome {
				c := &ranger.Campaign{
					Model: m, Trials: campaignGoldenTrials, Seed: 2027,
					Workers: workers, Incremental: mode,
				}
				out, err := c.Run(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(ranger.IncrementalOff, 1)
			for _, workers := range []int{1, 2, 0} {
				got := run(ranger.IncrementalOn, workers)
				outcomesEqual(t, name, want, got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: outcome differs", workers)
				}
			}
		})
	}
}

// TestGoldenIncrementalInt8CampaignMatchesFullReplay sweeps the zoo on
// the int8 quantized backend.
func TestGoldenIncrementalInt8CampaignMatchesFullReplay(t *testing.T) {
	for _, name := range goldenModels(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := models.Build(name)
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
			run := func(mode ranger.IncrementalMode, workers int) ranger.Outcome {
				c := &ranger.Campaign{
					Model: m, Trials: campaignGoldenTrials, Seed: 2027,
					Scenario: ranger.BitFlipInt8{Flips: 1}, Calibration: calib,
					Workers: workers, Incremental: mode,
				}
				out, err := c.Run(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(ranger.IncrementalOff, 1)
			for _, workers := range []int{1, 2, 0} {
				outcomesEqual(t, name+" int8", want, run(ranger.IncrementalOn, workers))
			}
		})
	}
}
