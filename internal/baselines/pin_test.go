package baselines

import (
	"context"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
)

// detectorPin is the expected DetectorOutcome of one detector campaign:
// the counters, the per-trial SDC labels as a 0/1 string, and an FNV-1a
// digest of the deviations' float64 bits.
type detectorPin struct {
	trials, top1, top5, detected, uncorrected, falsePositives int
	trialSDC                                                  string
	deviations                                                uint64
}

// bitsDigest hashes the exact bit patterns of xs.
func bitsDigest(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func pinOf(out inject.DetectorOutcome) detectorPin {
	var sdc strings.Builder
	for _, s := range out.TrialSDC {
		if s {
			sdc.WriteByte('1')
		} else {
			sdc.WriteByte('0')
		}
	}
	return detectorPin{
		trials: out.Trials, top1: out.Top1SDC, top5: out.Top5SDC,
		detected: out.DetectedFaulty, uncorrected: out.UncorrectedSDC, falsePositives: out.FalsePositives,
		trialSDC: sdc.String(), deviations: bitsDigest(out.Deviations),
	}
}

// runPinned runs det's campaign at one and at the default worker count
// and checks both DetectorOutcomes against want.
func runPinned(t *testing.T, name string, c inject.Campaign, feeds []graph.Feeds, det inject.Detector, want detectorPin) {
	t.Helper()
	c.Detector = det
	for _, workers := range []int{1, 0} {
		c.Workers = workers
		out, err := c.RunWithDetector(context.Background(), feeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.CleanRuns != len(feeds) {
			t.Fatalf("%s workers=%d: %d clean runs, want %d", name, workers, out.CleanRuns, len(feeds))
		}
		if got := pinOf(out); got != want {
			t.Errorf("%s workers=%d: DetectorOutcome drifted from the pin:\n got %#v\nwant %#v", name, workers, got, want)
		}
	}
}

// lenetPinSDC is the per-trial SDC label string of the lenet pin
// campaign; it depends only on the fault sites and the raw faulty
// outputs, so every detector shares it.
const lenetPinSDC = "011111000000110000011010000000000010000011010110101101101000100010000001001001010000000000010110100000000000010011000001"

// TestDetectorOutcomesPinned pins the Table VI detector campaigns —
// symptom, selective duplication, ABFT and a freshly trained learned
// detector — to exact DetectorOutcomes on lenet, plus the symptom
// detector on the comma regressor, at one and at the default worker
// count. The learned detector's fitted parameters are pinned too: its
// training campaign must hand the collector every execution in order.
func TestDetectorOutcomesPinned(t *testing.T) {
	ctx := context.Background()
	m, feeds := lenetWithInputs(t, 2)
	maxima := profiledMaxima(t, m, feeds)
	ml, err := TrainMLDetector(ctx, m, feeds, maxima, fixpoint.Q32, inject.DefaultScenario(), 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := bitsDigest(append(append([]float64{}, ml.Weights...), ml.Bias)); got != 0xdae4ac35dd3932fc {
		t.Errorf("learned detector parameters drifted: digest %#x", got)
	}
	lenet := inject.Campaign{Model: m, Trials: 60, Seed: 31}
	noDev := bitsDigest(nil)
	for _, tc := range []struct {
		name string
		det  inject.Detector
		want detectorPin
	}{
		{"symptom", NewSymptomDetector(maxima, 1.0), detectorPin{120, 36, 9, 58, 0, 0, lenetPinSDC, noDev}},
		{"duplication", NewDuplicationDetector([]string{"conv1", "act3", "conv4"}), detectorPin{120, 36, 9, 32, 31, 0, lenetPinSDC, noDev}},
		{"abft", NewABFTDetector(1e-3), detectorPin{120, 36, 9, 30, 31, 0, lenetPinSDC, noDev}},
		{"ml", ml, detectorPin{120, 36, 9, 21, 22, 0, lenetPinSDC, noDev}},
	} {
		runPinned(t, "lenet "+tc.name, lenet, feeds, tc.det, tc.want)
	}

	comma, err := models.Build("comma")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDriving()
	commaFeeds := []graph.Feeds{
		{comma.Input: ds.Sample(data.Train, 0).X},
		{comma.Input: ds.Sample(data.Train, 1).X},
	}
	commaMaxima := profiledMaxima(t, comma, commaFeeds)
	runPinned(t, "comma symptom", inject.Campaign{Model: comma, Trials: 40, Seed: 7}, commaFeeds,
		NewSymptomDetector(commaMaxima, 1.0), detectorPin{80, 0, 0, 46, 0, 0,
			"00000000101000111001011100100010000000000100000010000010101000000010010110000000", 0x701460d44be35bd4})
}
