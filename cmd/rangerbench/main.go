// Command rangerbench regenerates the Ranger paper's tables and figures
// through the public ranger facade.
//
// Usage:
//
//	rangerbench -exp all
//	rangerbench -exp fig6,fig7 -trials 500 -inputs 8
//	rangerbench -exp int8sdc -trials 40 -inputs 1
//	rangerbench -exp tab6 -cpuprofile bench.pprof
//
// Experiment ids: fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 tab2 tab3
// tab4 tab5 tab6 alt int8sdc adaptive persistent. int8sdc reports
// single-bit-flip campaign SDC rates on the post-training-quantized
// backend, with and without restriction; adaptive compares the
// stratified adaptive-campaign engine against uniform sampling (trials
// to the same per-stratum Wilson CI target); persistent sweeps the
// persistent fault surfaces (weight-memory and quant-param faults
// observed over inference sequences, with symptom detection and
// scrub-from-golden repair). Inference latency and protection overhead
// are measured by the repository benchmark (bench/), not here.
// Models are trained on first use and cached under
// $RANGER_CACHE (or the user cache dir), so the first run is slower.
// -cpuprofile writes a pprof CPU profile for local hot-path analysis.
// -json FILE additionally writes the machine-readable results of
// experiments that support it (adaptive, persistent) as a
// {"id": result} JSON object — the format of the committed
// BENCH_adaptive.json and BENCH_persistent.json trajectories.
// Interrupting (Ctrl-C) cancels the in-flight campaign promptly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ranger"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rangerbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rangerbench", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
	trials := fs.Int("trials", 0, "fault injections per input (default from RANGER_TRIALS or 150)")
	inputs := fs.Int("inputs", 0, "inputs per model (default from RANGER_INPUTS or 4)")
	seed := fs.Int64("seed", 1234, "campaign seed")
	workers := fs.Int("workers", 0, "worker-pool width (default from RANGER_WORKERS or the core count)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (for go tool pprof)")
	jsonOut := fs.String("json", "", "write machine-readable experiment results (BENCH_*.json trajectory format) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *workers > 0 {
		ranger.SetWorkers(*workers)
	}
	cfg := ranger.DefaultExperimentConfig()
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *inputs > 0 {
		cfg.Inputs = *inputs
	}
	cfg.Seed = *seed
	cfg.Workers = ranger.WorkerCount()
	runner := ranger.NewExperimentRunner(cfg)

	all := ranger.ExperimentIDs()
	var ids []string
	if *expFlag == "all" {
		ids = all
	} else {
		known := make(map[string]bool, len(all))
		for _, id := range all {
			known[id] = true
		}
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !known[id] {
				return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(all, " "))
			}
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiments selected")
	}
	if *jsonOut != "" {
		// Fail before any model trains: a -json run that would produce
		// an empty file should not cost a multi-minute campaign first.
		any := false
		for _, id := range ids {
			if ranger.ExperimentEmitsJSON(id) {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("-json: none of the selected experiments emit machine-readable results (adaptive and persistent do)")
		}
	}
	fmt.Printf("rangerbench: %d experiments, %d trials x %d inputs per campaign, %d workers\n\n",
		len(ids), cfg.Trials, cfg.Inputs, cfg.Workers)
	machine := make(map[string]json.RawMessage)
	for _, id := range ids {
		start := time.Now()
		res, err := ranger.RunExperiment(ctx, runner, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
		if j, ok := res.(interface{ JSON() ([]byte, error) }); ok && *jsonOut != "" {
			raw, err := j.JSON()
			if err != nil {
				return fmt.Errorf("%s: marshal: %w", id, err)
			}
			machine[id] = raw
		}
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(machine, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Printf("machine-readable results written to %s\n", *jsonOut)
	}
	return nil
}
