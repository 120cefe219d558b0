// Command rangerinject runs a custom fault-injection campaign against
// any benchmark model, with or without Ranger protection — the
// TensorFI-equivalent tool of this reproduction, built entirely on the
// public ranger facade.
//
// The fault model is selected from the scenario registry: bitflip
// (single/multi independent flips), consecutive (a run of adjacent
// bits), randomvalue (whole-word replacement), stuckat0/stuckat1
// (forced bits) and burst (one bit of adjacent words). Each acts on the
// backend's stored word: the -format fixed-point word, or the int8 byte
// under -int8.
//
// With -int8 the model is post-training quantized (calibrated on
// training samples) and faults strike the stored int8 representation —
// the deployed numeric format.
//
// Usage:
//
//	rangerinject -model lenet -trials 1000
//	rangerinject -model dave -trials 500 -faults 3 -ranger=false
//	rangerinject -model vgg16 -format q16 -scenario consecutive -faults 2
//	rangerinject -model alexnet -scenario randomvalue -progress
//	rangerinject -model lenet -int8 -trials 1000
//	rangerinject -model lenet -adaptive -ci-target 0.05
//	rangerinject -model lenet -adaptive -worstcase -strata 8
//	rangerinject -model lenet -surface weight -trials 200 -repair
//	rangerinject -model lenet -int8 -surface quantparam -trials 200
//
// With -adaptive the campaign samples (layer x bit-band) strata instead
// of the uniform grid, stopping each stratum once its Wilson 95% CI
// half-width reaches -ci-target; -trials bounds the total budget.
// -worstcase spends the budget highest-Wilson-upper-bound first. The
// report adds the post-stratified SDC estimate and per-stratum
// evidence.
//
// With -surface weight or -surface quantparam the fault is persistent:
// each trial becomes a sequence of -seqlen inferences over a stored
// fault (a flipped weight bit, or a corrupted quantized scale /
// zero-point), judged per inference against an activation-bound symptom
// detector profiled on training data. The report switches to
// inferences-to-detection and inferences-to-first-SDC; -repair scrubs
// the corrupted tensor from a golden copy on detection and verifies the
// restore byte-exactly. -surface quantparam requires -int8; -adaptive
// composes with persistent surfaces, stratifying sequences over
// (layer x bit-band).
//
// Interrupting (Ctrl-C) cancels the campaign promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"ranger"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rangerinject:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rangerinject", flag.ContinueOnError)
	model := fs.String("model", "lenet", "model name")
	trials := fs.Int("trials", 500, "injections per input")
	inputs := fs.Int("inputs", 4, "number of correctly-predicted inputs")
	scenario := fs.String("scenario", "bitflip",
		"fault scenario: "+strings.Join(ranger.ScenarioNames(), ", "))
	faults := fs.Int("faults", 1, "faults per execution (bit flips, replaced values, or stuck bits)")
	format := fs.String("format", "q32", "fixed-point datatype: q32 or q16")
	int8Backend := fs.Bool("int8", false, "run campaigns on the post-training-quantized int8 backend")
	withRanger := fs.Bool("ranger", true, "also evaluate the Ranger-protected model")
	profileSamples := fs.Int("profile", 120, "training samples for bound profiling")
	seed := fs.Int64("seed", 1, "campaign seed")
	workers := fs.Int("workers", 0, "worker-pool width (default from RANGER_WORKERS or the core count)")
	progress := fs.Bool("progress", false, "stream per-trial progress while campaigns run")
	adaptive := fs.Bool("adaptive", false, "stratified sampling with per-stratum Wilson early stopping")
	worstcase := fs.Bool("worstcase", false, "with -adaptive: spend the budget highest-Wilson-upper-bound first")
	ciTarget := fs.Float64("ci-target", 0, "with -adaptive: per-stratum CI half-width to stop at (default 0.05)")
	strata := fs.Int("strata", 0, "with -adaptive: bit bands per layer (default 4)")
	surface := fs.String("surface", "activation",
		"fault surface: "+strings.Join(ranger.SurfaceNames(), ", "))
	seqLen := fs.Int("seqlen", 0,
		fmt.Sprintf("persistent surfaces: inferences per fault sequence (default %d)", ranger.DefaultSequenceLen))
	repair := fs.Bool("repair", false, "persistent surfaces: scrub-from-golden repair on detection")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		ranger.SetWorkers(*workers)
	}

	var fmtFixed ranger.Format
	switch *format {
	case "q32":
		fmtFixed = ranger.Q32
	case "q16":
		fmtFixed = ranger.Q16
	default:
		return fmt.Errorf("unknown format %q (want q32 or q16)", *format)
	}
	scen, err := ranger.NewScenario(*scenario, *faults)
	if err != nil {
		return err
	}
	surf, err := ranger.NewSurface(*surface)
	if err != nil {
		return err
	}
	persistent := surf.Persistent()
	if !persistent && (*seqLen != 0 || *repair) {
		return fmt.Errorf("-seqlen and -repair need a persistent surface (weight or quantparam)")
	}

	zoo := ranger.DefaultZoo()
	zoo.Quiet = false
	m, err := zoo.Get(*model)
	if err != nil {
		return err
	}
	ds, err := ranger.DatasetFor(m)
	if err != nil {
		return err
	}
	feeds, err := ranger.SelectInputs(m, ds, *inputs)
	if err != nil {
		return err
	}
	// The header names the word the faults strike: the fixed-point
	// datapath on fp32, the stored int8 under -int8 (which ignores
	// -format).
	word := fmtFixed.String()
	if *int8Backend {
		word = "int8(8-bit)"
	}
	if persistent {
		fmt.Printf("campaign: %s, %d sequences x %d inputs, surface=%s scenario=%s faults=%d (%s), %d workers\n",
			m.Name, *trials, *inputs, surf.Name(), scen.Name(), *faults, word, ranger.WorkerCount())
	} else {
		fmt.Printf("campaign: %s, %d trials x %d inputs, scenario=%s faults=%d (%s), %d workers\n",
			m.Name, *trials, *inputs, scen.Name(), *faults, word, ranger.WorkerCount())
	}

	// Persistent surfaces judge every inference against an activation
	// symptom detector; profile the unprotected model once and share the
	// bounds between the detector and the Ranger transform.
	var bounds ranger.Bounds
	if persistent || *withRanger {
		if bounds, err = ranger.Profile(m, *profileSamples); err != nil {
			return err
		}
	}
	var det ranger.Detector
	if persistent {
		maxima := make(map[string]float64, len(bounds))
		for name, bd := range bounds {
			maxima[name] = bd.High
		}
		det = ranger.NewSymptomDetector(maxima, 1)
	}

	report := func(label string, target *ranger.Model) error {
		c := &ranger.Campaign{Model: target, Format: fmtFixed, Scenario: scen, Trials: *trials, Seed: *seed,
			Surface: surf, SequenceLen: *seqLen, Repair: *repair, Detector: det}
		if *adaptive {
			c.Adaptive = ranger.AdaptiveStratified
			if *worstcase {
				c.Adaptive = ranger.AdaptiveWorstCase
			}
			c.CITarget = *ciTarget
			c.Strata = *strata
		}
		if *int8Backend {
			calib, err := ranger.Calibrate(target, *profileSamples)
			if err != nil {
				return fmt.Errorf("calibrate %s: %w", target.Name, err)
			}
			c.Calibration = calib
		}
		if *progress {
			total := c.GridSize(feeds)
			var done atomic.Int64
			tick := func() {
				if n := done.Add(1); n%100 == 0 || n == total {
					fmt.Fprintf(os.Stderr, "\r%-10s %d/%d trials", label, n, total)
					if n == total {
						fmt.Fprintln(os.Stderr)
					}
				}
			}
			if persistent {
				c.OnSequence = func(ranger.SequenceResult) { tick() }
			} else {
				c.OnTrial = func(ranger.TrialResult) { tick() }
			}
		}
		if persistent {
			res, err := c.RunPersistent(ctx, feeds)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s detected %.1f%% of %d sequences (%d inferences)  mean detect latency %.2f  mean first-SDC %.2f\n",
				label, res.DetectionRate()*100, res.Sequences, res.Inferences,
				res.MeanDetectionLatency(), res.MeanFirstSDCLatency())
			fmt.Printf("%-10s SDC inferences: %d before detection, %d undetected  DUEs %d\n",
				label, res.SDCsBeforeDetection, res.UndetectedSDC, res.DUEs)
			if *repair {
				fmt.Printf("%-10s repairs %d (%d byte-exact restores)\n", label, res.Repairs, res.PostRepairOK)
			}
			if *adaptive {
				status := "converged"
				if !res.Converged {
					status = "budget spent"
				}
				fmt.Printf("%-10s %d strata in %d rounds (%s)\n", label, len(res.Strata), res.Rounds, status)
				for _, sr := range res.Strata {
					mark := " "
					if sr.Converged {
						mark = "*"
					}
					fmt.Printf("  %s bits %2d-%2d  %-24s w=%.4f  %s\n",
						mark, sr.BitLo, sr.BitHi, sr.Node, sr.Weight,
						ranger.NewProportion(sr.SDCs, sr.Trials).Percent())
				}
			}
			return nil
		}
		var out ranger.Outcome
		if *adaptive {
			res, err := c.RunAdaptive(ctx, feeds)
			if err != nil {
				return err
			}
			out = res.Outcome
			status := "converged"
			if !res.Converged {
				status = "budget spent"
			}
			fmt.Printf("%-10s estimate %s after %d/%d trials in %d rounds (%s, target +/-%.3f)\n",
				label, res.Estimate.Percent(), out.Trials, res.Budget, res.Rounds, status, res.CITarget)
			for _, sr := range res.Strata {
				mark := " "
				if sr.Converged {
					mark = "*"
				}
				fmt.Printf("  %s bits %2d-%2d  %-24s w=%.4f  %s\n",
					mark, sr.BitLo, sr.BitHi, sr.Node, sr.Weight,
					ranger.NewProportion(sr.SDCs, sr.Trials).Percent())
			}
		} else {
			var err error
			out, err = c.Run(ctx, feeds)
			if err != nil {
				return err
			}
		}
		switch target.Kind {
		case ranger.Classifier:
			fmt.Printf("%-10s top-1 SDC %s   top-5 SDC %s\n", label,
				ranger.NewProportion(out.Top1SDC, out.Trials).Percent(),
				ranger.NewProportion(out.Top5SDC, out.Trials).Percent())
		case ranger.Regressor:
			fmt.Printf("%-10s", label)
			for _, th := range ranger.SteeringThresholds {
				fmt.Printf("  thr=%g: %.2f%%", th, out.RateAbove(th)*100)
			}
			fmt.Println()
		}
		return nil
	}
	if err := report("original", m); err != nil {
		return err
	}
	if !*withRanger {
		return nil
	}
	pm, res, err := ranger.Protect(m, bounds, ranger.ProtectOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("ranger: %d nodes protected (inserted in %s)\n", len(res.Protected), res.InsertionTime)
	return report("ranger", pm)
}
