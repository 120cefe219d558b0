// Golden equivalence suite for incremental fault campaigns: for every
// zoo architecture, at 1/2/default workers, a suffix-replay campaign
// must reproduce a reference Outcome bit for bit. On fp32 the reference
// is the same campaign run with a never-firing detector attached, whose
// trials replay every plan step from step 0 on the detector's
// observe-all plan. On int8 it is a per-model literal captured from
// full per-trial replay of the quantized plan.
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

// silentDetector observes every node and never fires, so a detector
// campaign's embedded Outcome is exactly the plain campaign's.
type silentDetector struct{}

func (silentDetector) Name() string                              { return "silent" }
func (silentDetector) Reset()                                    {}
func (silentDetector) Observe(*ranger.GraphNode, *ranger.Tensor) {}
func (silentDetector) Detected() bool                            { return false }
func (silentDetector) CloneDetector() ranger.Detector            { return silentDetector{} }

// TestGoldenIncrementalCampaignMatchesFullReplay sweeps the zoo on the
// fp32 backend against the detector path's full replay.
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
			campaign := func(workers int) *ranger.Campaign {
				return &ranger.Campaign{Model: m, Trials: campaignGoldenTrials, Seed: 2027, Workers: workers}
			}
			detc := campaign(1)
			detc.Detector = silentDetector{}
			full, err := detc.RunWithDetector(context.Background(), feeds)
			if err != nil {
				t.Fatal(err)
			}
			want := full.Outcome
			for _, workers := range []int{1, 2, 0} {
				got, err := campaign(workers).Run(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				outcomesEqual(t, name, want, got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: outcome differs", workers)
				}
			}
		})
	}
}

// int8GoldenOutcomes are the int8 campaigns' Outcomes (12 BitFlipInt8
// trials per input, seed 2027), captured from full per-trial replay of
// the quantized plan.
var int8GoldenOutcomes = map[string]ranger.Outcome{
	"lenet":      {Trials: 24},
	"alexnet":    {Trials: 24},
	"vgg11":      {Trials: 24},
	"vgg16":      {Trials: 24},
	"resnet18":   {Trials: 24},
	"squeezenet": {Trials: 24},
	"dave": {Trials: 24, Deviations: []float64{
		0.23130094114789682, 0.23130094114789682, 0.23130094114789682, 0, 0, 0, 0, 0,
		0.8480994665986058, 0, 0, 0, 0.07709960223792706, 0, 0, 0,
		0.07709960223792706, 0, 0, 0, 0, 0.539699350099605, 1.387798816698211, 0,
	}},
	"comma": {Trials: 24, Deviations: []float64{
		0.008899986743927002, 0.008899986743927002, 0.004449963569641113, 0,
		0.11569982767105103, 0, 0.004449963569641113, 0,
		0.008899986743927002, 0, 0.008899986743927002, 0.004450023174285889,
		0.004449993371963501, 0.004449993371963501, 0.017799973487854004, 0.006675004959106445,
		0.006675004959106445, 0.004449993371963501, 0.020024985074996948, 0.004449993371963501,
		0, 0, 0.013349980115890503, 0.0022250115871429443,
	}},
}

// TestGoldenIncrementalInt8CampaignMatchesFullReplay sweeps the zoo on
// the int8 quantized backend against the captured full-replay Outcomes.
func TestGoldenIncrementalInt8CampaignMatchesFullReplay(t *testing.T) {
	for _, name := range goldenModels(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := int8GoldenOutcomes[name]
			if !ok {
				t.Fatalf("no int8 golden outcome for %s", name)
			}
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
			for _, workers := range []int{1, 2, 0} {
				c := &ranger.Campaign{
					Model: m, Trials: campaignGoldenTrials, Seed: 2027,
					Scenario: ranger.BitFlipInt8{Flips: 1}, Calibration: calib,
					Workers: workers,
				}
				got, err := c.Run(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				outcomesEqual(t, name+" int8", want, got)
			}
		})
	}
}
