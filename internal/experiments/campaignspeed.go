package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
)

// CampaignSpeedRow is one model's fault-campaign throughput under full
// per-trial replay vs checkpointed suffix replay (trials per second,
// higher is better), over the whole fault space and over a late-layer
// fault space (the last third of corruptible nodes — the selective
// vulnerability-estimation shape, where suffix replay skips most of the
// plan).
type CampaignSpeedRow struct {
	Model string `json:"model"`
	// Steps is the campaign plan's schedule length.
	Steps int `json:"plan_steps"`
	// FullTPS / IncTPS are trials/sec over the full fault space.
	FullTPS float64 `json:"full_trials_per_sec"`
	IncTPS  float64 `json:"incremental_trials_per_sec"`
	Speedup float64 `json:"speedup"`
	// LateFullTPS / LateIncTPS are trials/sec with the fault space
	// restricted to the last third of corruptible nodes.
	LateFullTPS float64 `json:"late_full_trials_per_sec"`
	LateIncTPS  float64 `json:"late_incremental_trials_per_sec"`
	LateSpeedup float64 `json:"late_speedup"`
}

// CampaignSpeedResult reports campaign throughput across the zoo. It
// marshals to JSON (rangerbench -json) so the bench trajectory can
// track campaign throughput alongside the latency benchmarks.
type CampaignSpeedResult struct {
	Trials  int                `json:"trials"`
	Workers int                `json:"workers"`
	Rows    []CampaignSpeedRow `json:"rows"`
}

// JSON implements the machine-readable result extension used by
// rangerbench -json.
func (r *CampaignSpeedResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render implements the experiment result interface.
func (r *CampaignSpeedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign throughput: full replay vs incremental suffix replay (%d trials, %d workers)\n", r.Trials, r.Workers)
	b.WriteString("(late = fault space restricted to the last third of corruptible nodes)\n\n")
	fmt.Fprintf(&b, "%-12s %6s %10s %10s %8s %10s %10s %8s\n",
		"model", "steps", "full t/s", "incr t/s", "speedup", "late-full", "late-incr", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %6d %10.0f %10.0f %7.2fx %10.0f %10.0f %7.2fx\n",
			row.Model, row.Steps, row.FullTPS, row.IncTPS, row.Speedup,
			row.LateFullTPS, row.LateIncTPS, row.LateSpeedup)
	}
	return b.String()
}

// lateThirdNodes returns the last third of a model's corruptible nodes
// in execution order — a late-layer fault space.
func lateThirdNodes(m *models.Model) []string {
	names := inject.CorruptibleNodes(m, nil, nil)
	return names[len(names)-(len(names)+2)/3:]
}

// CampaignSpeed measures fault-campaign throughput on every benchmark
// model: trials/sec under full per-trial replay vs checkpointed suffix
// replay, on the full fault space and on a late-layer fault space. The
// two strategies produce byte-identical Outcomes (the golden campaign
// suite is the oracle); only the throughput differs.
func CampaignSpeed(ctx context.Context, r *Runner) (*CampaignSpeedResult, error) {
	res := &CampaignSpeedResult{Trials: r.cfg.Trials, Workers: r.cfg.Workers}
	for _, name := range models.Names() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := r.Model(name)
		if err != nil {
			return nil, err
		}
		feeds, err := r.Inputs(name)
		if err != nil {
			return nil, err
		}
		input := feeds[:1]
		measure := func(targets []string, mode inject.IncrementalMode) (float64, error) {
			c := &inject.Campaign{
				Model: m, Trials: r.cfg.Trials, Seed: r.cfg.Seed,
				Workers: r.cfg.Workers, TargetNodes: targets, Incremental: mode,
			}
			start := time.Now()
			if _, err := c.Run(ctx, input); err != nil {
				return 0, err
			}
			return float64(r.cfg.Trials) / time.Since(start).Seconds(), nil
		}
		row := CampaignSpeedRow{Model: name}
		plan, err := graph.Compile(m.Graph, m.Output)
		if err != nil {
			return nil, err
		}
		row.Steps = plan.Steps()
		late := lateThirdNodes(m)
		if row.FullTPS, err = measure(nil, inject.IncrementalOff); err != nil {
			return nil, fmt.Errorf("campaignspeed %s (full): %w", name, err)
		}
		if row.IncTPS, err = measure(nil, inject.IncrementalOn); err != nil {
			return nil, fmt.Errorf("campaignspeed %s (incremental): %w", name, err)
		}
		if row.LateFullTPS, err = measure(late, inject.IncrementalOff); err != nil {
			return nil, fmt.Errorf("campaignspeed %s (late full): %w", name, err)
		}
		if row.LateIncTPS, err = measure(late, inject.IncrementalOn); err != nil {
			return nil, fmt.Errorf("campaignspeed %s (late incremental): %w", name, err)
		}
		if row.FullTPS > 0 {
			row.Speedup = row.IncTPS / row.FullTPS
		}
		if row.LateFullTPS > 0 {
			row.LateSpeedup = row.LateIncTPS / row.LateFullTPS
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
