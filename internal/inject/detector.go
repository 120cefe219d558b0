package inject

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ranger/internal/graph"
	"ranger/internal/parallel"
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
// can be duplicated. RunWithDetector shards trials across workers (one
// clone per worker) when the detector supports it and falls back to
// sequential execution otherwise — order-dependent detectors such as
// training-data collectors stay correct by simply not implementing it.
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
	// deviation above the campaign's RegSDCThresholdDeg). Used as labels
	// when training learned detectors.
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

// RunWithDetector executes the campaign with a detection technique
// attached. SDC accounting in the embedded Outcome refers to the raw
// (undetected-and-uncorrected) faulty outputs; UncorrectedSDC applies the
// detect-and-re-execute recovery model. For regressors, detected trials'
// recorded deviations are zeroed (corrected by re-execution).
// Trials shard across workers when det implements CloneableDetector (one
// clone per worker); otherwise they run sequentially. Either way each
// trial samples from its own hash(Seed, input, trial) stream and results
// fold in trial order, so the DetectorOutcome is identical at every
// worker count. Cancelling ctx makes the call return promptly with
// ctx.Err(); OnTrial streams each trial with Detected filled in.
func (c *Campaign) RunWithDetector(ctx context.Context, inputs []graph.Feeds, det Detector) (DetectorOutcome, error) {
	if det == nil {
		return DetectorOutcome{}, fmt.Errorf("inject: nil detector")
	}
	if c.Calibration != nil {
		return DetectorOutcome{}, fmt.Errorf("inject: detectors observe fp32 values; quantized campaigns support Run only")
	}
	if c.Adaptive != SamplingUniform {
		return DetectorOutcome{}, fmt.Errorf("inject: detector campaigns sample uniformly; unset Campaign.Adaptive")
	}
	if s := c.surface(); s.Persistent() {
		return DetectorOutcome{}, fmt.Errorf("inject: persistent surface %q runs through RunPersistent (set Campaign.Detector)", s.Name())
	}
	if err := c.validate(inputs); err != nil {
		return DetectorOutcome{}, err
	}
	workers := 1
	cloneable, ok := det.(CloneableDetector)
	if ok {
		workers = parallel.Resolve(c.Workers)
	}
	// Detectors observe every operator output, so the campaign plan marks
	// every node as an observation point (no fusion); the plan still
	// provides the static buffer assignment and is shared by all workers.
	plan, err := graph.CompileWith(c.Model.Graph, graph.CompileOptions{ObserveAll: true}, c.Model.Output)
	if err != nil {
		return DetectorOutcome{}, fmt.Errorf("inject: compile %s: %w", c.Model.Name, err)
	}
	var out DetectorOutcome
	cleanState := plan.NewState()
	var cbMu sync.Mutex
	for ii, feeds := range inputs {
		if err := ctx.Err(); err != nil {
			return DetectorOutcome{}, err
		}
		fs, err := c.faultSpace(plan, feeds)
		if err != nil {
			return DetectorOutcome{}, err
		}
		refOuts, err := plan.Run(cleanState, feeds)
		if err != nil {
			return DetectorOutcome{}, fmt.Errorf("inject: clean run: %w", err)
		}
		ref := refOuts[0].Clone()

		// False-positive check on the clean execution.
		det.Reset()
		if _, err := plan.RunHook(cleanState, feeds, func(n *graph.Node, t *tensor.Tensor) *tensor.Tensor {
			det.Observe(n, t)
			return nil
		}); err != nil {
			return DetectorOutcome{}, err
		}
		out.CleanRuns++
		if det.Detected() {
			out.FalsePositives++
		}

		type detVerdict struct {
			trialVerdict
			detected bool
		}
		verdicts := make([]detVerdict, c.Trials)
		errs := make([]error, c.Trials)
		parallel.Shard(workers, c.Trials, func(lo, hi int) {
			d := det
			if workers > 1 {
				d = cloneable.CloneDetector()
			}
			st := plan.NewState()
			for trial := lo; trial < hi; trial++ {
				if err := ctx.Err(); err != nil {
					errs[trial] = err
					return
				}
				sites := c.sampleFaultSites(fs, trialRNG(c.Seed, ii, trial))
				d.Reset()
				faulty, err := c.runWithFaultsObserved(plan, st, feeds, sites, d)
				if err != nil {
					errs[trial] = err
					continue
				}
				verdicts[trial] = detVerdict{
					trialVerdict: c.judgeTrial(ref, faulty),
					detected:     d.Detected(),
				}
				if c.OnTrial != nil {
					tr := verdicts[trial].result(ii, trial)
					tr.Detected = verdicts[trial].detected
					cbMu.Lock()
					c.OnTrial(tr)
					cbMu.Unlock()
				}
			}
		})
		for trial := 0; trial < c.Trials; trial++ {
			if errs[trial] != nil {
				return DetectorOutcome{}, errs[trial]
			}
			v := verdicts[trial]
			if v.detected {
				out.DetectedFaulty++
			}
			wasSDC := v.top1
			if v.isReg {
				wasSDC = v.dev > c.regSDCThreshold()
			}
			out.TrialSDC = append(out.TrialSDC, wasSDC)
			if wasSDC && !v.detected {
				out.UncorrectedSDC++
			}
			// Detected regressor trials are corrected by re-execution:
			// record a zero deviation.
			if v.detected && v.isReg {
				v.dev = 0
			}
			v.apply(&out.Outcome)
		}
	}
	// Mirror Run's cancellation contract: cancelled ⇒ ctx.Err(), never a
	// fold that could pass for a completed campaign.
	if err := ctx.Err(); err != nil {
		return DetectorOutcome{}, err
	}
	return out, nil
}

// runWithFaultsObserved is runWithFaults with a detector observing every
// node output after fault application.
func (c *Campaign) runWithFaultsObserved(plan *graph.Plan, st *graph.PlanState, feeds graph.Feeds, sites map[string][]Site, det Detector) (*tensor.Tensor, error) {
	scen, format := c.scenario(), c.format()
	var hookErr error
	hook := func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		result := out
		if ss, ok := sites[n.Name()]; ok && hookErr == nil {
			repl := out.Clone()
			for _, s := range ss {
				if s.Elem < 0 || s.Elem >= repl.Size() {
					hookErr = siteBoundsError(s, repl.Size())
					return nil
				}
				v, err := scen.Corrupt(format, repl.Data()[s.Elem], s)
				if err != nil {
					hookErr = fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
					return nil
				}
				repl.Data()[s.Elem] = v
			}
			result = repl
		}
		det.Observe(n, result)
		if result != out {
			return result
		}
		return nil
	}
	outs, err := plan.RunHook(st, feeds, hook)
	if hookErr != nil {
		return nil, hookErr
	}
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0], nil
}
