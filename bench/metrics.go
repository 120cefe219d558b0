package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports on every workload.
// An "operation" is the workload's unit of work: an inference request
// (serve), a fault-injection trial (campaign-full, campaign-late), or
// one inference of a fault sequence (persistent).
var endToEnd = []metricDef{
	// setup_s is the zoo set-up: load, profile, protect, calibrate,
	// compile and quantize, median of three set-ups in the run, at the
	// reference host speed (atRefSpeed).
	{"setup_s", "s", "lower", 0.25},
	// max_rss_mb is the peak resident set at the end of the timed loop.
	{"max_rss_mb", "MB", "lower", 0.20},
	// ops_per_s_* are operations per second on the protected zoo at the
	// reference host speed: per model the median over rounds, then the
	// geomean over models.
	{"ops_per_s_fp32", "1/s", "higher", 0.20},
	{"ops_per_s_int8", "1/s", "higher", 0.20},
	// ranger_ratio_* are protected over plain time per operation: per
	// model the median of the back-to-back pairs' ratios, then the
	// geomean over models. Pairing cancels host-speed drift, so their
	// spread over ten runs stayed under 5%.
	{"ranger_ratio_fp32", "ratio", "lower", 0.10},
	{"ranger_ratio_int8", "ratio", "lower", 0.10},
}

// stepClasses groups plan steps by the operator that runs their kernel.
var stepClasses = []string{"conv", "matmul", "pool", "elementwise", "quant", "other"}

// perLayer are the metrics a traced run reports on every workload; see
// layers.go for how each is measured and README.md for the end-to-end
// metric each should move.
var perLayer = func() []metricDef {
	ms := func(name string) metricDef { return metricDef{Name: name, Unit: "ms", Better: "lower"} }
	us := func(name string) metricDef { return metricDef{Name: name, Unit: "us", Better: "lower"} }
	count := func(name, better string) metricDef { return metricDef{Name: name, Unit: "count", Better: better} }
	defs := []metricDef{
		ms("train.load_ms"), ms("core.profile_ms"), ms("core.protect_ms"),
		ms("core.calibrate_ms"), ms("graph.compile_ms"), ms("graph.quantize_ms"),
		ms("models.run_fp32_ms"), ms("models.run_int8_ms"),
		ms("graph.plan_run_ms"), ms("graph.qplan_run_ms"),
	}
	for _, b := range []string{"fp32", "int8"} {
		for _, class := range stepClasses {
			if class == "quant" && b == "fp32" {
				continue // fp32 plans have no quantize steps
			}
			defs = append(defs, ms("graph.step_ms."+b+"."+class))
		}
	}
	defs = append(defs,
		count("graph.fused_nodes", "higher"),
		metricDef{Name: "parallel.cpu_per_wall", Unit: "ratio", Better: "higher"},
		count("alloc.allocs_per_infer", "lower"),
		metricDef{Name: "alloc.bytes_per_infer", Unit: "B", Better: "lower"},
	)
	for _, b := range []string{"fp32", "int8"} {
		defs = append(defs,
			ms("inject.run_fixed_ms."+b), us("inject.trial_us."+b), us("inject.replay_us."+b),
			us("inject.trial_overhead_us."+b), ms("graph.checkpoint_ms."+b))
	}
	defs = append(defs, count("inject.allocs_per_trial", "lower"))
	for _, ps := range persistentSurfaces {
		defs = append(defs, ms("inject.seq_fixed_ms."+ps.label), us("inject.inference_us."+ps.label),
			count("inject.inferences_per_sequence."+ps.label, "lower"))
	}
	defs = append(defs, us("baselines.detector_us"),
		count("inject.repairs", "higher"), count("inject.post_repair_ok", "higher"))
	return defs
}()
