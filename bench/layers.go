package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"ranger"
)

// Per-layer probes of a traced run. Each probe times facade calls on the
// protected zoo directly, recording a span per call; every traced run
// measures all of them, so any workload's traced run explains every
// end-to-end metric. Sizes are fixed so the probes take the same work
// on every run.
const (
	// probeInfers is the inference count per model and backend for the
	// models.Run and Plan.Run timings.
	probeInfers = 16
	// probeReps is the repetitions each hooked pass, checkpoint and
	// two-size campaign timing takes its median over.
	probeReps = 3
)

// layerMetrics runs every per-layer probe and returns the metrics by
// name.
func layerMetrics(ctx context.Context, su setupResult, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, name := range []string{"train.load", "core.profile", "core.protect", "core.calibrate", "graph.compile", "graph.quantize"} {
		out[name+"_ms"] = su.layerMS[name]
	}
	p := &prober{ctx: ctx, tr: tr}
	for _, probe := range []func([]*model, map[string]float64) error{
		p.inference, p.steps, p.campaigns, p.persistent,
	} {
		if err := probe(su.zoo, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prober times facade calls and records a span around each.
type prober struct {
	ctx context.Context
	tr  *tracer
	op  int64
}

// time runs f under a span and returns its wall time.
func (p *prober) time(name string, f func() error) (time.Duration, error) {
	p.op++
	i := p.tr.begin(name, -1, p.op)
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	p.tr.end(i)
	return elapsed, err
}

// inference times models.Run and the bare Plan.Run/QPlan.Run on each
// protected model (the gap is wrapper cost), and counts fused nodes,
// CPU per wall second and allocations per models.Run call.
func (p *prober) inference(zoo []*model, out map[string]float64) error {
	var run, bare [2][]float64
	var fused, infers int
	var cpu, wall time.Duration
	var allocs, bytes uint64
	for _, md := range zoo {
		fused += md.fp32[prot].Plan.FusedNodes()
		var ms [4][]float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, wall0 := cpuTime(), time.Now()
		for i := range probeInfers {
			in := md.inputs[i%len(md.inputs)]
			fp, err := p.time("models.run_fp32", func() error { _, err := md.fp32[prot].Run(in); return err })
			if err != nil {
				return err
			}
			q, err := p.time("models.run_int8", func() error { _, err := md.int8[prot].Run(in); return err })
			if err != nil {
				return err
			}
			ms[0], ms[1] = append(ms[0], msOf(fp)), append(ms[1], msOf(q))
		}
		cpu, wall = cpu+cpuTime()-cpu0, wall+time.Since(wall0)
		runtime.ReadMemStats(&m1)
		allocs, bytes, infers = allocs+m1.Mallocs-m0.Mallocs, bytes+m1.TotalAlloc-m0.TotalAlloc, infers+2*probeInfers

		plan, qplan := md.fp32[prot].Plan, md.int8[prot].Plan
		st, qst := plan.NewState(), qplan.NewState()
		for i := range probeInfers {
			in := md.inputs[i%len(md.inputs)]
			fp, err := p.time("graph.plan_run", func() error { _, err := plan.Run(st, in); return err })
			if err != nil {
				return err
			}
			q, err := p.time("graph.qplan_run", func() error { _, err := qplan.Run(qst, in); return err })
			if err != nil {
				return err
			}
			ms[2], ms[3] = append(ms[2], msOf(fp)), append(ms[3], msOf(q))
		}
		for b := range 2 {
			run[b] = append(run[b], median(ms[b]))
			bare[b] = append(bare[b], median(ms[2+b]))
		}
	}
	out["models.run_fp32_ms"], out["models.run_int8_ms"] = geomean(run[0]), geomean(run[1])
	out["graph.plan_run_ms"], out["graph.qplan_run_ms"] = geomean(bare[0]), geomean(bare[1])
	out["graph.fused_nodes"] = float64(fused)
	out["parallel.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()
	out["alloc.allocs_per_infer"] = float64(allocs) / float64(infers)
	out["alloc.bytes_per_infer"] = float64(bytes) / float64(infers)
	return nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stepClass classifies a plan step by the operator that runs its
// kernel. A step is named after the last node of its fused chain, so
// the walk goes back through fused elementwise nodes (those without a
// step of their own) to the chain's head.
func stepClass(g *ranger.Graph, name string, stepOf func(string) int, int8 bool) string {
	n, ok := g.Node(name)
	if !ok {
		return "other"
	}
	for elementwise[n.OpType()] && len(n.Inputs()) > 0 && stepOf(n.Inputs()[0].Name()) < 0 {
		n = n.Inputs()[0]
	}
	switch n.OpType() {
	case "Conv2D":
		return "conv"
	case "MatMul":
		return "matmul"
	case "MaxPool", "AvgPool":
		return "pool"
	case "Placeholder":
		if int8 {
			return "quant" // the int8 plan quantizes its feeds here
		}
	}
	if elementwise[n.OpType()] {
		return "elementwise"
	}
	return "other"
}

var elementwise = map[string]bool{
	"Relu": true, "Tanh": true, "Sigmoid": true, "Elu": true, "Atan": true,
	"BiasAdd": true, "Add": true, "Scale": true, "RangerClip": true, "Softmax": true,
}

// hookedPasses runs a plan probeReps times with a hook after every
// observed step; run executes one pass and calls its argument with each
// hooked node's name. Per step k it returns the median of self[k], the
// time from the previous hook (or the start) to k's hook, zero when k
// calls no hook (its time then lands on the next hooked step), and of
// replay[k], the time from that same previous hook to the end of the
// pass: what a replay from step k costs. tail is the median time from
// the last hook to the return (restoring and, on int8, dequantizing the
// output). All in ms.
func (p *prober) hookedPasses(name string, steps int, stepOf func(string) int, run func(hook func(node string)) error) (self, replay []float64, tail float64, err error) {
	selfs, replays := make([][]float64, steps), make([][]float64, steps)
	var tails []float64
	at := make([]time.Time, steps)
	for range probeReps {
		clear(at)
		var begin, end time.Time
		if _, err := p.time(name, func() error {
			begin = time.Now()
			err := run(func(node string) {
				if k := stepOf(node); k >= 0 {
					at[k] = time.Now()
				}
			})
			end = time.Now()
			return err
		}); err != nil {
			return nil, nil, 0, err
		}
		last := begin
		for k, t := range at {
			replays[k] = append(replays[k], msOf(end.Sub(last)))
			if t.IsZero() {
				selfs[k] = append(selfs[k], 0)
				continue
			}
			selfs[k] = append(selfs[k], msOf(t.Sub(last)))
			last = t
		}
		tails = append(tails, msOf(end.Sub(last)))
	}
	self, replay = make([]float64, steps), make([]float64, steps)
	for k := range steps {
		self[k], replay[k] = median(selfs[k]), median(replays[k])
	}
	return self, replay, median(tails), nil
}

// steps splits each protected serving plan's time over its steps, timed
// by a hook after every step: the plan is compiled again with every
// step's output as an observation point, which keeps the same steps and
// fusion. Per class the result is the geomean over the models that have
// such steps, 0 when none has; the time after the last step counts as
// other on fp32 and as quant on int8, where it dequantizes the output.
func (p *prober) steps(zoo []*model, out map[string]float64) error {
	perClass := map[string][]float64{}
	add := func(backend string, self []float64, tail float64, class func(k int) string, tailClass string) {
		sums := map[string]float64{tailClass: tail}
		for k, ms := range self {
			sums[class(k)] += ms
		}
		for c, ms := range sums {
			key := "graph.step_ms." + backend + "." + c
			perClass[key] = append(perClass[key], ms)
		}
	}
	for _, md := range zoo {
		g, in := md.net[prot].Graph, md.inputs[0]
		serving := md.fp32[prot].Plan
		names := make([]string, serving.Steps())
		for _, n := range g.Nodes() {
			if k := serving.StepOf(n.Name()); k >= 0 {
				names[k] = n.Name()
			}
		}
		opts := ranger.CompileOptions{Observe: names}
		cm, err := md.net[prot].CompileWith(opts)
		if err != nil {
			return err
		}
		if cm.Plan.Steps() != serving.Steps() || cm.Plan.FusedNodes() != serving.FusedNodes() {
			return fmt.Errorf("%s: observing step outputs changed the plan (%d steps, %d fused; serving %d, %d)",
				md.name, cm.Plan.Steps(), cm.Plan.FusedNodes(), serving.Steps(), serving.FusedNodes())
		}
		st := cm.Plan.NewState()
		self, _, tail, err := p.hookedPasses("graph.plan_run", len(names), cm.Plan.StepOf, func(hook func(string)) error {
			_, err := cm.Plan.RunHook(st, in, func(n *ranger.GraphNode, out *ranger.Tensor) *ranger.Tensor {
				hook(n.Name())
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
		add("fp32", self, tail, func(k int) string { return stepClass(g, names[k], cm.Plan.StepOf, false) }, "other")

		qm, err := md.net[prot].QuantizeWith(opts, md.calib)
		if err != nil {
			return err
		}
		qnames := qm.Plan.StepNames()
		if len(qnames) != md.int8[prot].Plan.Steps() {
			return fmt.Errorf("%s: observing step outputs changed the int8 plan (%d steps, serving %d)", md.name, len(qnames), md.int8[prot].Plan.Steps())
		}
		qst := qm.Plan.NewState()
		qself, _, qtail, err := p.hookedPasses("graph.qplan_run", len(qnames), qm.Plan.StepOf, func(hook func(string)) error {
			_, err := qm.Plan.RunHook(qst, in, func(n *ranger.GraphNode, out *ranger.QTensor) *ranger.QTensor {
				hook(n.Name())
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
		add("int8", qself, qtail, func(k int) string { return stepClass(g, qnames[k], qm.Plan.StepOf, true) }, "quant")
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "graph.step_ms.") {
			out[d.Name] = 0 // no model has a step of this class
			if vals, ok := perClass[d.Name]; ok {
				out[d.Name] = geomean(vals)
			}
		}
	}
	return nil
}

// campaigns fits each protected model's campaign time as fixed + T x
// trial from calls at T and 4T trials over the full fault space, and
// compares the trial cost with the expected suffix replay: RunFrom from
// each fault-space node's step, weighted by the node's element count (the
// campaign samples sites uniformly over elements).
func (p *prober) campaigns(zoo []*model, out map[string]float64) error {
	var fixed, trial, replay, ckpt [2][]float64
	var allocs, trials float64
	for _, md := range zoo {
		space := faultSpace(md)
		for b, backend := range []string{"fp32", "int8"} {
			t := max(fullTrials[md.name]/4, 1)
			camp := ranger.Campaign{Model: md.net[prot], Seed: faultSeed(md.name), Workers: 1, TargetNodes: plainNodes(md)}
			if backend == "int8" {
				camp.Scenario = ranger.BitFlipInt8{Flips: 1}
				camp.Calibration = md.calib
			}
			var small, large []float64
			for rep := range probeReps {
				for _, n := range []int{t, 4 * t} {
					c := camp
					c.Trials = n
					var m0, m1 runtime.MemStats
					if rep == 0 {
						runtime.ReadMemStats(&m0)
					}
					d, err := p.time("inject.run", func() error { _, err := c.Run(p.ctx, md.inputs[:1]); return err })
					if err != nil {
						return fmt.Errorf("%s %s probe campaign: %w", md.name, backend, err)
					}
					if rep == 0 {
						runtime.ReadMemStats(&m1)
						sign := 1.0
						if n == t {
							sign = -1
						}
						allocs += sign * float64(m1.Mallocs-m0.Mallocs)
					}
					if n == t {
						small = append(small, msOf(d))
					} else {
						large = append(large, msOf(d))
					}
				}
			}
			trials += float64(3 * t)
			perTrialMS := (median(large) - median(small)) / float64(3*t)
			fixed[b] = append(fixed[b], median(small)-float64(t)*perTrialMS)
			trial[b] = append(trial[b], 1e3*perTrialMS)

			rep, ck, err := p.replay(md, b, space)
			if err != nil {
				return err
			}
			replay[b] = append(replay[b], rep)
			ckpt[b] = append(ckpt[b], ck)
		}
	}
	for b, backend := range []string{"fp32", "int8"} {
		out["inject.run_fixed_ms."+backend] = fitGeomean(fixed[b])
		out["inject.trial_us."+backend] = fitGeomean(trial[b])
		out["inject.replay_us."+backend] = geomean(replay[b])
		// What a trial costs beyond its replay: restoring the checkpoint,
		// corrupting and undoing, judging, and lane batching's effect.
		out["inject.trial_overhead_us."+backend] = fitGeomean(trial[b]) - geomean(replay[b])
		out["graph.checkpoint_ms."+backend] = geomean(ckpt[b])
	}
	out["inject.allocs_per_trial"] = allocs / trials
	return nil
}

// fitGeomean is the geomean of the positive values of a two-size fit
// over the zoo, 0 if none is positive: when a host stall lands on the
// smaller call, a model's fit can come out negative, and it is left out.
func fitGeomean(xs []float64) float64 {
	xs = slices.DeleteFunc(slices.Clone(xs), func(x float64) bool { return !(x > 0) })
	if len(xs) == 0 {
		return 0
	}
	return geomean(xs)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// faultSpace returns the campaign-full fault space: every plain-model
// node except feeds, weights and the nodes the model excludes.
func faultSpace(md *model) []string {
	var names []string
	for _, n := range md.net[plain].Graph.Nodes() {
		switch n.OpType() {
		case "Placeholder", "Variable":
			continue
		}
		if !slices.Contains(md.net[plain].ExcludeFI, n.Name()) {
			names = append(names, n.Name())
		}
	}
	return names
}

// replay returns a protected model's expected suffix replay per trial in
// us, on the campaign's plan (fault-space nodes kept unfused so faults
// can strike them): the time from each fault-space node's step to the
// end of a pass, weighted by the node's element count, since campaigns
// sample sites uniformly over elements. It also returns the median time
// to capture the plan's checkpoint, in ms.
func (p *prober) replay(md *model, b int, space []string) (replayUS, checkpointMS float64, err error) {
	opts := ranger.CompileOptions{Observe: space}
	cm, err := md.net[prot].CompileWith(opts)
	if err != nil {
		return 0, 0, err
	}
	in := md.inputs[0]
	shapes, err := cm.Plan.InferredShapes(in)
	if err != nil {
		return 0, 0, err
	}
	steps, stepOf := cm.Plan.Steps(), cm.Plan.StepOf
	var checkpoint func() error
	var run func(hook func(string)) error
	if b == 0 {
		st := cm.Plan.NewState()
		checkpoint = func() error { _, err := cm.Plan.Checkpoint(st, in); return err }
		run = func(hook func(string)) error {
			_, err := cm.Plan.RunHook(st, in, func(n *ranger.GraphNode, out *ranger.Tensor) *ranger.Tensor {
				hook(n.Name())
				return nil
			})
			return err
		}
	} else {
		qm, err := md.net[prot].QuantizeWith(opts, md.calib)
		if err != nil {
			return 0, 0, err
		}
		st := qm.Plan.NewState()
		steps, stepOf = qm.Plan.Steps(), qm.Plan.StepOf
		checkpoint = func() error { _, err := qm.Plan.Checkpoint(st, in); return err }
		run = func(hook func(string)) error {
			_, err := qm.Plan.RunHook(st, in, func(n *ranger.GraphNode, out *ranger.QTensor) *ranger.QTensor {
				hook(n.Name())
				return nil
			})
			return err
		}
	}
	var ckMS []float64
	for range probeReps {
		d, err := p.time("graph.checkpoint", checkpoint)
		if err != nil {
			return 0, 0, err
		}
		ckMS = append(ckMS, msOf(d))
	}
	_, fromStep, _, err := p.hookedPasses("graph.run_hooked", steps, stepOf, run)
	if err != nil {
		return 0, 0, err
	}
	total := 0.0
	for _, name := range space {
		k, shape := stepOf(name), shapes[name]
		if k < 0 || shape == nil {
			continue
		}
		size := 1.0
		for _, d := range shape {
			size *= float64(d)
		}
		replayUS += 1e3 * fromStep[k] * size
		total += size
	}
	return replayUS / total, median(ckMS), nil
}

// persistent fits each protected model's sequence-campaign time as fixed
// + inferences x per-inference cost from calls of S and 4S sequences on
// every surface, S being the persistent workload's call size, and
// measures the symptom detector's cost per inference (weight surface on
// fp32, repair off, with and without the detector).
func (p *prober) persistent(zoo []*model, out map[string]float64) error {
	fixed, perInf, perSeq := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var repairs, repairOK int
	var with, without []float64
	for _, md := range zoo {
		seqs := persistentSequences[md.name]
		maxima := make(map[string]float64, len(md.bounds))
		for name, b := range md.bounds {
			maxima[name] = b.High
		}
		base := ranger.Campaign{
			Model: md.net[prot], Seed: faultSeed(md.name), Workers: 1,
			TargetNodes: plainNodes(md), SequenceLen: persistentSeqLen,
		}
		for _, ps := range persistentSurfaces {
			camp := base
			camp.Surface, camp.Repair, camp.Detector = ps.surface, true, ranger.NewSymptomDetector(maxima, 1.0)
			if ps.family == "int8" {
				camp.Scenario = ranger.BitFlipInt8{Flips: 1}
				camp.Calibration = md.calib
			}
			var small, large []float64
			var inf [2]int64
			for rep := range probeReps {
				for i, n := range []int{seqs, 4 * seqs} {
					c := camp
					c.Trials = n
					var o ranger.PersistentOutcome
					d, err := p.time("inject.run_persistent", func() (err error) {
						o, err = c.RunPersistent(p.ctx, md.profiled)
						return err
					})
					if err != nil {
						return fmt.Errorf("%s %s probe: %w", md.name, ps.label, err)
					}
					inf[i] = o.Inferences
					if i == 0 {
						small = append(small, msOf(d))
						continue
					}
					large = append(large, msOf(d))
					if rep == 0 {
						repairs, repairOK = repairs+o.Repairs, repairOK+o.PostRepairOK
					}
				}
			}
			ms := (median(large) - median(small)) / float64(inf[1]-inf[0])
			perInf[ps.label] = append(perInf[ps.label], 1e3*ms)
			fixed[ps.label] = append(fixed[ps.label], median(small)-float64(inf[0])*ms)
			perSeq[ps.label] = append(perSeq[ps.label], float64(inf[1])/float64(4*seqs))
		}
		var w, wo []float64
		for range probeReps {
			for _, det := range []ranger.Detector{nil, ranger.NewSymptomDetector(maxima, 1.0)} {
				c := base
				c.Surface, c.Detector, c.Trials = ranger.WeightSurface{}, det, seqs
				var o ranger.PersistentOutcome
				d, err := p.time("inject.run_persistent", func() (err error) {
					o, err = c.RunPersistent(p.ctx, md.profiled)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s detector probe: %w", md.name, err)
				}
				us := 1e3 * msOf(d) / float64(o.Inferences)
				if det == nil {
					wo = append(wo, us)
				} else {
					w = append(w, us)
				}
			}
		}
		with, without = append(with, median(w)), append(without, median(wo))
	}
	for _, ps := range persistentSurfaces {
		out["inject.seq_fixed_ms."+ps.label] = fitGeomean(fixed[ps.label])
		out["inject.inference_us."+ps.label] = fitGeomean(perInf[ps.label])
		out["inject.inferences_per_sequence."+ps.label] = mean(perSeq[ps.label])
	}
	out["baselines.detector_us"] = geomean(with) - geomean(without)
	out["inject.repairs"] = float64(repairs)
	out["inject.post_repair_ok"] = float64(repairOK)
	return nil
}
