package inject

import (
	"context"
	"math"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Detector is implemented by fault-detection techniques (the Table VI
// comparators: symptom-based detection, selective duplication, ABFT
// checksums, ML-based detection). The campaign calls Reset before each
// execution, Observe for every evaluated node in topological order (after
// any fault has been applied to that node's output), and Detected after
// the run. Techniques that detect a fault are credited with correcting it
// by re-execution — the recovery model of those papers, whose cost Ranger
// avoids.
type Detector interface {
	// Name identifies the technique in reports.
	Name() string
	// Reset clears per-execution state.
	Reset()
	// Observe is called for every evaluated node with its (possibly
	// faulty) output.
	Observe(node *graph.Node, out *tensor.Tensor)
	// Detected reports whether this execution was flagged as faulty.
	Detected() bool
}

// CloneableDetector is implemented by detectors whose per-execution state
// can be duplicated. Campaigns with a Campaign.Detector (RunWithDetector
// and persistent campaigns) shard trials across workers when
// the detector supports it, each worker observing with its own clone;
// otherwise they run one worker, which sees the trials in trial order —
// order-dependent detectors such as training-data collectors stay
// correct by simply not implementing it.
type CloneableDetector interface {
	Detector
	// CloneDetector returns a detector sharing the receiver's
	// configuration but owning fresh per-execution state.
	CloneDetector() Detector
}

// DetectorOutcome extends Outcome with detection accounting.
type DetectorOutcome struct {
	Outcome
	// DetectedFaulty counts faulty executions that were flagged.
	DetectedFaulty int
	// UncorrectedSDC counts SDCs that escaped detection (the residual SDC
	// rate after detect-and-re-execute recovery).
	UncorrectedSDC int
	// FalsePositives counts clean executions (one per input) flagged.
	FalsePositives int
	// CleanRuns is the number of clean executions checked for FPs.
	CleanRuns int
	// TrialSDC records, per trial in execution order, whether the raw
	// faulty output was an SDC (classifier: top-1 flip; regressor:
	// deviation above the paper's smallest threshold, 15°). Used as
	// labels when training learned detectors.
	TrialSDC []bool
}

// CoverageOfSDCs returns the fraction of SDC-causing faults that the
// detector caught (the paper's "SDC coverage" in Table VI). With zero
// observed SDCs the quantity is undefined — there was nothing to cover
// — and the result is NaN rather than a vacuous 100%; table renderers
// print "n/a". Use CoverageOfSDCsOK to branch without a NaN check. The
// denominator is the per-trial SDC labels when present (which count
// regressor SDCs too), falling back to Top1SDC for hand-built values.
func (d DetectorOutcome) CoverageOfSDCs() float64 {
	c, ok := d.CoverageOfSDCsOK()
	if !ok {
		return math.NaN()
	}
	return c
}

// CoverageOfSDCsOK returns the SDC coverage and whether it is defined
// (at least one SDC was observed to cover).
func (d DetectorOutcome) CoverageOfSDCsOK() (float64, bool) {
	total := 0
	if len(d.TrialSDC) > 0 {
		for _, sdc := range d.TrialSDC {
			if sdc {
				total++
			}
		}
	} else {
		total = d.Top1SDC
	}
	if total == 0 {
		return 0, false
	}
	return 1 - float64(d.UncorrectedSDC)/float64(total), true
}

// RunWithDetector executes the detector campaign: transient trials with
// Campaign.Detector attached. SDC accounting in the embedded Outcome
// refers to the raw (undetected-and-uncorrected) faulty outputs;
// UncorrectedSDC applies the detect-and-re-execute recovery model. For
// regressors, detected trials' recorded deviations are zeroed (corrected
// by re-execution).
//
// Trials run on the same worker engine as Run: each replays the input's
// clean checkpoint on a plan that observes every node, from step 0 so
// the detector sees every node's output. Trials shard across workers
// when the detector implements CloneableDetector (one clone per worker);
// otherwise they run on one worker in trial order. Either way each
// trial samples from its own hash(Seed, input, trial) stream and results
// fold in trial order, so the DetectorOutcome is identical at every
// worker count. Cancelling ctx makes the call return promptly with
// ctx.Err(); OnTrial streams each trial with Detected filled in.
func (c *Campaign) RunWithDetector(ctx context.Context, inputs []graph.Feeds) (DetectorOutcome, error) {
	if err := c.validateAs(detectorMode, inputs); err != nil {
		return DetectorOutcome{}, err
	}
	b, err := c.newBackend(inputs)
	if err != nil {
		return DetectorOutcome{}, err
	}
	var out DetectorOutcome
	err = b.runSlots(ctx, func(ii int) []slot { return c.gridSlots(ii, 0, c.GridSize(inputs)) },
		func(_ []slot, verdicts []trialVerdict, flagged bool) {
			// False-positive check: the detector watched the input's
			// clean pass.
			out.CleanRuns++
			if flagged {
				out.FalsePositives++
			}
			for _, v := range verdicts {
				if v.detected {
					out.DetectedFaulty++
				}
				wasSDC := c.isSDC(v)
				out.TrialSDC = append(out.TrialSDC, wasSDC)
				if wasSDC && !v.detected {
					out.UncorrectedSDC++
				}
				// Detected regressor trials are corrected by
				// re-execution: record a zero deviation.
				if v.detected && v.isReg {
					v.dev = 0
				}
				v.apply(&out.Outcome)
			}
		})
	if err != nil {
		return DetectorOutcome{}, err
	}
	return out, nil
}
