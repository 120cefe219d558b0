package inject

import (
	"context"
	"strings"
	"testing"

	"ranger/internal/core"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

// On the int8 backend a bit flip acts on the stored two's-complement
// byte.
func TestBitFlipInt8Corrupt(t *testing.T) {
	s := BitFlips{Flips: 1}
	q, err := corruptInt8(s, 0b0101, Site{Bit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q != 0b0111 {
		t.Fatalf("flip bit 1 of 0101 = %08b", uint8(q))
	}
	// Flipping bit 7 toggles the sign.
	q, err = corruptInt8(s, 1, Site{Bit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if q != -127 {
		t.Fatalf("flip sign of 1 = %d, want -127", q)
	}
	// A double flip restores the value.
	q, _ = corruptInt8(s, q, Site{Bit: 7})
	if q != 1 {
		t.Fatalf("double flip = %d, want 1", q)
	}
	if _, err := corruptInt8(s, 0, Site{Bit: 8}); err == nil {
		t.Fatal("want out-of-range bit error")
	}
}

func TestStuckAtInt8Corrupt(t *testing.T) {
	s1 := StuckAt{Faults: 1, Value: 1}
	q, err := corruptInt8(s1, 0, Site{Bit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if q != -128 {
		t.Fatalf("stuck-at-1 bit 7 of 0 = %d, want -128", q)
	}
	// Idempotent: the bit is forced, not toggled.
	q2, _ := corruptInt8(s1, q, Site{Bit: 7})
	if q2 != q {
		t.Fatalf("stuck-at is not idempotent: %d -> %d", q, q2)
	}
	s0 := StuckAt{Faults: 1, Value: 0}
	q, _ = corruptInt8(s0, -1, Site{Bit: 0})
	if q != -2 {
		t.Fatalf("stuck-at-0 bit 0 of -1 = %d, want -2", q)
	}
}

func TestInt8ScenarioValidation(t *testing.T) {
	ctx := context.Background()
	m, feeds := lenetInputs(t, 1)
	calib := lenetCalibration(t, m, feeds)
	// RunWithDetector is fp32-only; the rejection names the entry points
	// that do take int8, RunPersistent (with a Detector) among them.
	c := &Campaign{Model: m, Trials: 1, Calibration: calib, Detector: nopDetector{}}
	if _, err := c.RunWithDetector(ctx, feeds); err == nil {
		t.Fatal("detector ran on the quantized backend")
	} else if !strings.Contains(err.Error(), "RunPersistent") {
		t.Fatalf("rejection %q does not name RunPersistent", err)
	}
}

type nopDetector struct{}

func (nopDetector) Name() string                        { return "nop" }
func (nopDetector) Reset()                              {}
func (nopDetector) Observe(*graph.Node, *tensor.Tensor) {}
func (nopDetector) Detected() bool                      { return false }

func lenetCalibration(t *testing.T, m *models.Model, feeds []graph.Feeds) graph.Calibration {
	t.Helper()
	calib, err := core.CalibrateModel(m, len(feeds), func(i int) (graph.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return calib
}

// TestQuantizedCampaignRuns pins the int8 campaign mechanics: it
// executes, counts trials, and is deterministic and worker-count
// independent.
func TestQuantizedCampaignRuns(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	calib := lenetCalibration(t, m, feeds)
	run := func(workers int, scen Scenario) Outcome {
		c := &Campaign{
			Model: m, Scenario: scen, Trials: 25, Seed: 7,
			Calibration: calib, Workers: workers,
		}
		out, err := c.Run(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run(1, BitFlips{Flips: 1})
	if a.Trials != 50 {
		t.Fatalf("trials = %d, want 50", a.Trials)
	}
	if a.Top5SDC > a.Top1SDC {
		t.Fatalf("top5 SDC %d > top1 SDC %d", a.Top5SDC, a.Top1SDC)
	}
	b := run(4, BitFlips{Flips: 1})
	if a.Trials != b.Trials || a.Top1SDC != b.Top1SDC || a.Top5SDC != b.Top5SDC {
		t.Fatalf("worker counts disagree: %+v vs %+v", a, b)
	}
	// stuckat-int8 runs through the same machinery.
	s := run(2, StuckAt{Faults: 1, Value: 1})
	if s.Trials != 50 {
		t.Fatalf("stuckat trials = %d, want 50", s.Trials)
	}
}

// TestQuantizedCampaignRegistryScenarios runs the registry-built int8
// scenarios end to end.
func TestQuantizedCampaignRegistryScenarios(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	calib := lenetCalibration(t, m, feeds)
	for _, name := range []string{"bitflip-int8", "stuckat-int8"} {
		scen, err := NewScenario(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{Model: m, Scenario: scen, Trials: 10, Seed: 3, Calibration: calib}
		out, err := c.Run(context.Background(), feeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Trials != 10 {
			t.Fatalf("%s: trials = %d", name, out.Trials)
		}
	}
}
