// Golden equivalence suite for persistent fault surfaces: weight-memory
// and quant-param campaigns must fold a PersistentOutcome byte-identical
// at 1/2/default workers, on both backends, with and without repair.
// Sequences shard across workers but fold in sequence order through
// SequenceResult.Apply, so the aggregate — counters and latency
// distributions alike — is pinned to the single-worker reference.
package ranger_test

import (
	"context"
	"reflect"
	"testing"

	"ranger"
	"ranger/internal/models"
)

// persistentGoldenSequences keeps the sweep fast: sequence seeding,
// detector sharding, repair, and the fold are exercised by a handful of
// sequences per campaign.
const persistentGoldenSequences = 6

// persistentDetector profiles activation maxima on the campaign inputs
// and wraps them in the symptom detector persistent sequences judge
// against.
func persistentDetector(t *testing.T, m *models.Model, feeds []ranger.Feeds) ranger.Detector {
	t.Helper()
	bounds, err := ranger.ProfileModel(m, ranger.ProfileOptions{}, len(feeds), func(i int) (ranger.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	maxima := make(map[string]float64, len(bounds))
	for name, bd := range bounds {
		maxima[name] = bd.High
	}
	return ranger.NewSymptomDetector(maxima, 1)
}

// TestGoldenPersistentWeightCampaignWorkers pins the fp32 weight-memory
// surface across worker counts, with repair on and off.
func TestGoldenPersistentWeightCampaignWorkers(t *testing.T) {
	for _, name := range []string{"lenet", "dave"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			feeds := campaignFeeds(t, m)
			det := persistentDetector(t, m, feeds)
			run := func(workers int, repair bool) ranger.PersistentOutcome {
				c := &ranger.Campaign{
					Model: m, Trials: persistentGoldenSequences, Seed: 2027,
					Workers: workers, Surface: ranger.WeightSurface{},
					SequenceLen: 4, Repair: repair, Detector: det,
				}
				out, err := c.RunPersistent(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			for _, repair := range []bool{false, true} {
				want := run(1, repair)
				if want.Sequences != persistentGoldenSequences {
					t.Fatalf("repair=%v: ran %d sequences", repair, want.Sequences)
				}
				for _, workers := range []int{1, 2, 0} {
					if got := run(workers, repair); !reflect.DeepEqual(want, got) {
						t.Fatalf("repair=%v workers=%d: outcome %+v != %+v", repair, workers, got, want)
					}
				}
			}
		})
	}
}

// TestGoldenPersistentInt8CampaignWorkers pins the int8 persistent
// surfaces — stored-weight faults and quant-param faults — across
// worker counts.
func TestGoldenPersistentInt8CampaignWorkers(t *testing.T) {
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
	det := persistentDetector(t, m, feeds)
	for _, surf := range []ranger.Surface{ranger.WeightSurface{}, ranger.QuantParamSurface{}} {
		surf := surf
		t.Run(surf.Name(), func(t *testing.T) {
			run := func(workers int) ranger.PersistentOutcome {
				c := &ranger.Campaign{
					Model: m, Trials: persistentGoldenSequences, Seed: 2027,
					Scenario: ranger.BitFlipInt8{Flips: 1}, Calibration: calib,
					Workers: workers, Surface: surf,
					SequenceLen: 4, Repair: true, Detector: det,
				}
				out, err := c.RunPersistent(context.Background(), feeds)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(1)
			if want.Sequences != persistentGoldenSequences {
				t.Fatalf("ran %d sequences", want.Sequences)
			}
			for _, workers := range []int{1, 2, 0} {
				if got := run(workers); !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: outcome %+v != %+v", workers, got, want)
				}
			}
		})
	}
}
