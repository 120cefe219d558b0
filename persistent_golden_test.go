// Golden equivalence suite for persistent fault surfaces: weight-memory
// and quant-param campaigns must fold a PersistentOutcome byte-identical
// at 1/2/default workers, on both backends, with and without repair.
// Sequences shard across workers but fold in sequence order through
// SequenceResult.Apply, so the aggregate — counters and latency
// distributions alike — is pinned to the single-worker reference, and
// that reference is pinned to a literal outcome (persistentPins), so a
// drift that is the same at every worker count fails too.
package ranger_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"ranger"
	"ranger/internal/models"
)

// persistentGoldenSequences keeps the sweep fast: sequence seeding,
// detector sharding, repair, and the fold are exercised by a handful of
// sequences per campaign.
const persistentGoldenSequences = 6

// persistentPins are the single-worker PersistentOutcomes of the golden
// campaigns below, keyed by model, surface and repair setting. They were
// captured from the engine before transient trials and persistent
// sequences shared one backend, and a change to the engine must leave
// them unchanged.
var persistentPins = map[string]ranger.PersistentOutcome{
	"lenet/weight/repair=false": {Sequences: 6, Inferences: 13, Detected: 4,
		DetectionLatencies: []int{1, 1, 1, 2}, FirstSDCLatencies: []int{1}, SDCsBeforeDetection: 1},
	"lenet/weight/repair=true": {Sequences: 6, Inferences: 13, Detected: 4,
		DetectionLatencies: []int{1, 1, 1, 2}, FirstSDCLatencies: []int{1}, SDCsBeforeDetection: 1,
		Repairs: 4, PostRepairOK: 4},
	"dave/weight/repair=false": {Sequences: 6, Inferences: 12, Detected: 4,
		DetectionLatencies: []int{1, 1, 1, 1}, FirstSDCLatencies: []int{1, 1, 1}, SDCsBeforeDetection: 3},
	"dave/weight/repair=true": {Sequences: 6, Inferences: 12, Detected: 4,
		DetectionLatencies: []int{1, 1, 1, 1}, FirstSDCLatencies: []int{1, 1, 1}, SDCsBeforeDetection: 3,
		Repairs: 4, PostRepairOK: 4},
	"lenet/int8-weight/repair=true":     {Sequences: 6, Inferences: 24},
	"lenet/int8-quantparam/repair=true": {Sequences: 6, Inferences: 24, FirstSDCLatencies: []int{1}, UndetectedSDC: 4},
}

// checkPersistentPin compares a golden campaign's single-worker outcome
// with its literal pin.
func checkPersistentPin(t *testing.T, key string, got ranger.PersistentOutcome) {
	t.Helper()
	want, ok := persistentPins[key]
	if !ok {
		t.Fatalf("no persistent pin for %s", key)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: outcome drifted from the pin:\n got %+v\nwant %+v", key, got, want)
	}
}

// stratifiedPin is a stratified campaign's expected result: each
// stratum's evidence as "SDCs/trials" in stratum order, the round count,
// and an FNV-1a digest of the whole outcome's JSON. JSON spells every
// float in its shortest round-trip form, so equal digests mean
// bit-identical outcomes.
type stratifiedPin struct {
	strata string
	rounds int
	digest uint64
}

func stratifiedPinOf(t *testing.T, strata []ranger.StratumResult, rounds int, outcome any) stratifiedPin {
	t.Helper()
	ev := make([]string, len(strata))
	for i, s := range strata {
		ev[i] = fmt.Sprintf("%d/%d", s.SDCs, s.Trials)
	}
	b, err := json.Marshal(outcome)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return stratifiedPin{strata: strings.Join(ev, " "), rounds: rounds, digest: h.Sum64()}
}

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
				checkPersistentPin(t, fmt.Sprintf("%s/weight/repair=%v", name, repair), want)
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
			checkPersistentPin(t, "lenet/int8-"+surf.Name()+"/repair=true", want)
			for _, workers := range []int{1, 2, 0} {
				if got := run(workers); !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: outcome %+v != %+v", workers, got, want)
				}
			}
		})
	}
}

// TestGoldenPersistentStratifiedPinned pins one stratified persistent
// campaign (fp32 weight surface, worst-case ordering, two rounds, symptom
// detection with repair) to its literal outcome at one and at the default
// worker count.
func TestGoldenPersistentStratifiedPinned(t *testing.T) {
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	feeds := campaignFeeds(t, m)
	det := persistentDetector(t, m, feeds)
	want := stratifiedPin{
		strata: "14/32 0/0 20/32 0/0 13/32 0/0 17/32 0/0 10/32 0/0 23/32 0/0 10/32 0/0 26/32 0/0 9/32 0/0 26/32 0/0",
		rounds: 2, digest: 0x37e5295cc7aff8f0,
	}
	for _, workers := range []int{1, 0} {
		c := &ranger.Campaign{
			Model: m, Trials: 320, Seed: 23, Workers: workers,
			Surface: ranger.WeightSurface{}, SequenceLen: 2,
			Adaptive: ranger.AdaptiveWorstCase, CITarget: 0.2, Strata: 2,
			Detector: det, Repair: true,
		}
		out, err := c.RunPersistent(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		if out.Sequences != 320 || out.Inferences != 434 || out.Detected != 212 ||
			out.SDCsBeforeDetection != 131 || out.UndetectedSDC != 70 || out.PostRepairOK != 212 {
			t.Fatalf("workers=%d: counters drifted from the pin: %+v", workers, out)
		}
		if got := stratifiedPinOf(t, out.Strata, out.Rounds, out); got != want {
			t.Fatalf("workers=%d: stratified outcome drifted from the pin:\n got %#v\nwant %#v", workers, got, want)
		}
	}
}
