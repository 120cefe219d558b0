package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"ranger/internal/baselines"
	"ranger/internal/inject"
)

// Persistent fault-surface experiment knobs. Fixed (not Config.Trials-
// scaled) so the emitted JSON is comparable across bench runs.
const (
	// persistentSequences is the fault-sequence count per campaign.
	persistentSequences = 200
	// persistentSeqLen bounds each sequence's inference count.
	persistentSeqLen = 16
	// persistentSlack scales the profiled activation maxima into the
	// symptom detector's thresholds.
	persistentSlack = 1.0
)

// PersistentRow reports one persistent-surface campaign: a stuck fault
// in stored state (a weight word or a quant parameter) observed over
// sequences of inferences, with detection-triggered scrub-from-golden
// repair.
type PersistentRow struct {
	Model   string `json:"model"`
	Surface string `json:"surface"` // weight | quantparam
	Backend string `json:"backend"` // fp32 | int8
	// Sequences / Inferences count the campaign's work.
	Sequences  int64 `json:"sequences"`
	Inferences int64 `json:"inferences"`
	// DetectionRate is the fraction of sequences the symptom detector
	// caught; the latencies are means over detected / SDC-bearing
	// sequences (inferences, 1-based).
	DetectionRate    float64 `json:"detection_rate"`
	DetectLatency    float64 `json:"mean_detect_latency"`
	FirstSDCLatency  float64 `json:"mean_first_sdc_latency"`
	SDCsBeforeDetect int     `json:"sdcs_before_detection"`
	UndetectedSDCs   int     `json:"undetected_sdcs"`
	// Repairs counts detection-triggered scrubs; RepairOK how many
	// replayed the clean reference byte-exactly afterwards.
	Repairs  int `json:"repairs"`
	RepairOK int `json:"repair_ok"`
	// DUEs counts sequences whose fault made the plan unexecutable
	// (quant-param corruption only).
	DUEs int `json:"dues"`
}

// PersistentResult reports the persistent fault-surface sweep. It
// marshals to JSON (rangerbench -exp persistent -json) so the bench
// trajectory can track persistent-fault resilience.
type PersistentResult struct {
	Sequences int             `json:"sequences"`
	SeqLen    int             `json:"sequence_len"`
	Rows      []PersistentRow `json:"rows"`
}

// JSON implements the machine-readable result extension used by
// rangerbench -json.
func (r *PersistentResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render implements the experiment result interface.
func (r *PersistentResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Persistent fault surfaces (%d sequences x <=%d inferences, symptom detector + scrub-from-golden repair)\n\n",
		r.Sequences, r.SeqLen)
	fmt.Fprintf(&b, "%-8s %-10s %-7s %9s %8s %9s %9s %8s %8s %9s %5s\n",
		"model", "surface", "backend", "detected", "latency", "first-sdc", "sdc-early", "sdc-miss", "repairs", "repair-ok", "dues")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-10s %-7s %8.1f%% %8.2f %9.2f %9d %8d %8d %9d %5d\n",
			row.Model, row.Surface, row.Backend, row.DetectionRate*100,
			row.DetectLatency, row.FirstSDCLatency,
			row.SDCsBeforeDetect, row.UndetectedSDCs, row.Repairs, row.RepairOK, row.DUEs)
	}
	return b.String()
}

// PersistentSurfaces measures the persistent fault surfaces on lenet:
// weight-memory faults on the fp32 and int8 backends, and quant-param
// faults on int8. Each sequence plants one stuck fault in stored state
// and runs inferences until the activation-bound symptom detector fires
// (triggering a scrub-from-golden repair, verified byte-exactly) or the
// sequence budget ends — measuring inferences-to-detection, SDCs served
// before detection, and what slips through undetected.
func PersistentSurfaces(ctx context.Context, r *Runner) (*PersistentResult, error) {
	m, err := r.Model("lenet")
	if err != nil {
		return nil, err
	}
	feeds, err := r.Inputs("lenet")
	if err != nil {
		return nil, err
	}
	maxima, err := r.ActMaxima("lenet")
	if err != nil {
		return nil, err
	}
	calib, err := r.Calibration(m)
	if err != nil {
		return nil, err
	}
	res := &PersistentResult{Sequences: persistentSequences, SeqLen: persistentSeqLen}
	runs := []struct {
		surface inject.Surface
		backend string
	}{
		{inject.WeightSurface{}, "fp32"},
		{inject.WeightSurface{}, "int8"},
		{inject.QuantParamSurface{}, "int8"},
	}
	for _, cfg := range runs {
		c := &inject.Campaign{
			Model: m, Trials: persistentSequences, Seed: r.cfg.Seed + 7207, Workers: r.cfg.Workers,
			Surface: cfg.surface, SequenceLen: persistentSeqLen, Repair: true,
			Detector: baselines.NewSymptomDetector(maxima, persistentSlack),
		}
		if cfg.backend == "int8" {
			c.Scenario = inject.BitFlipInt8{Flips: 1}
			c.Calibration = calib
		}
		out, err := c.RunPersistent(ctx, feeds)
		if err != nil {
			return nil, fmt.Errorf("persistent %s/%s: %w", cfg.surface.Name(), cfg.backend, err)
		}
		res.Rows = append(res.Rows, PersistentRow{
			Model:            "lenet",
			Surface:          cfg.surface.Name(),
			Backend:          cfg.backend,
			Sequences:        out.Sequences,
			Inferences:       out.Inferences,
			DetectionRate:    out.DetectionRate(),
			DetectLatency:    out.MeanDetectionLatency(),
			FirstSDCLatency:  out.MeanFirstSDCLatency(),
			SDCsBeforeDetect: out.SDCsBeforeDetection,
			UndetectedSDCs:   out.UndetectedSDC,
			Repairs:          out.Repairs,
			RepairOK:         out.PostRepairOK,
			DUEs:             out.DUEs,
		})
	}
	return res, nil
}
