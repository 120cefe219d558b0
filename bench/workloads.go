package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ranger"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop from one goroutine over rounds; a round makes each cell's
// call once on the plain and once on the protected model.
type workload struct {
	name, why string
	// cells builds the round's calls over the prepared zoo.
	cells func(ctx context.Context, zoo []*model) ([]*cell, error)
}

var workloads = []workload{
	{
		name:  "serve",
		why:   "one request per model x {fp32,int8} x {plain,Ranger}: tests the paper's negligible-overhead claim on the inference path",
		cells: serveCells,
	},
	{
		name:  "campaign-full",
		why:   "uniform single-bit-flip campaigns over the whole fault space: suffix-replay kernels dominate",
		cells: campaignCells(false),
	},
	{
		name:  "campaign-late",
		why:   "campaigns on the last third of activation nodes: replay is short, so per-trial and per-call fixed costs dominate",
		cells: campaignCells(true),
	},
	{
		name:  "persistent",
		why:   "weight and quant-param fault sequences with symptom detection and repair: writes stored state beside the reads",
		cells: persistentCells,
	},
}

// cell is one (model, backend) slot of a round: the same call made on
// the plain and on the Ranger-protected model, back to back.
type cell struct {
	model  string
	family string // "fp32" or "int8": the end-to-end metrics the cell feeds
	label  string // backend or fault surface
	span   string // name of the span around each call
	// run makes side s's call for round r with the given campaign worker
	// count. It times only the facade call and then checks the output.
	run [2]func(r, workers int) (ops int, elapsed time.Duration, err error)
	// times holds seconds per operation, scaled the same at the reference
	// host speed (atRefSpeed), and calls seconds per call, one entry per
	// round.
	times, scaled, calls [2][]float64
	// canon is each side's outcome as canonical bytes, for the digest.
	canon [2][]byte
}

// checkSame records got as the side's outcome on first use and reports
// any later outcome that differs from it.
func (c *cell) checkSame(s int, got []byte) error {
	if c.canon[s] == nil {
		c.canon[s] = got
		return nil
	}
	if !bytes.Equal(c.canon[s], got) {
		return fmt.Errorf("%s %s %s: outcome differs from the first call's", c.model, c.label, sideNames[s])
	}
	return nil
}

// tensorBits is the tensor's float32 data as little-endian bytes.
func tensorBits(t *ranger.Tensor) []byte {
	b := make([]byte, 0, 4*len(t.Data()))
	for _, v := range t.Data() {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// serveCells sends one request per model, backend and side per round,
// cycling through the model's seeded inputs. fp32 responses must match
// the legacy Executor bit for bit; int8 responses must match the first
// response for the same input.
func serveCells(_ context.Context, zoo []*model) ([]*cell, error) {
	refs, err := serveRefs(zoo)
	if err != nil {
		return nil, err
	}
	var cells []*cell
	for i, md := range zoo {
		fp := &cell{model: md.name, family: "fp32", label: "fp32", span: "models.run_fp32"}
		q := &cell{model: md.name, family: "int8", label: "int8", span: "models.run_int8"}
		for s := range md.net {
			fpRefs, qRefs := refs[i][s][0], refs[i][s][1]
			fp.canon[s] = bytes.Join(fpRefs, nil)
			q.canon[s] = bytes.Join(qRefs, nil)
			fp.run[s] = serveCall(md, s, "fp32", fpRefs, func(in ranger.Feeds) (*ranger.Tensor, error) { return md.fp32[s].Run(in) })
			q.run[s] = serveCall(md, s, "int8", qRefs, func(in ranger.Feeds) (*ranger.Tensor, error) { return md.int8[s].Run(in) })
		}
		cells = append(cells, fp, q)
	}
	return cells, nil
}

// serveRefs computes, per model, side and input, the Executor's fp32
// output and the int8 model's first output, as bytes. Models run on two
// goroutines: this is untimed preparation, and the Executor is slow.
func serveRefs(zoo []*model) ([][2][2][][]byte, error) {
	refs := make([][2][2][][]byte, len(zoo))
	errs := make([]error, len(zoo))
	next := make(chan int)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = modelRefs(zoo[i], &refs[i])
			}
		}()
	}
	for i := range zoo {
		next <- i
	}
	close(next)
	wg.Wait()
	return refs, errors.Join(errs...)
}

func modelRefs(md *model, refs *[2][2][][]byte) error {
	for s, net := range md.net {
		for _, in := range md.inputs {
			outs, err := (&ranger.Executor{}).Run(net.Graph, in, net.Output)
			if err != nil {
				return fmt.Errorf("%s reference: %w", net.Name, err)
			}
			out, err := md.int8[s].Run(in)
			if err != nil {
				return fmt.Errorf("%s int8: %w", net.Name, err)
			}
			refs[s][0] = append(refs[s][0], tensorBits(outs[0]))
			refs[s][1] = append(refs[s][1], tensorBits(out))
		}
	}
	return nil
}

func serveCall(md *model, s int, backend string, refs [][]byte, infer func(ranger.Feeds) (*ranger.Tensor, error)) func(r, workers int) (int, time.Duration, error) {
	return func(r, _ int) (int, time.Duration, error) {
		i := r % len(md.inputs)
		start := time.Now()
		out, err := infer(md.inputs[i])
		elapsed := time.Since(start)
		if err != nil {
			return 1, elapsed, fmt.Errorf("%s %s %s: %w", md.name, backend, sideNames[s], err)
		}
		if !bytes.Equal(tensorBits(out), refs[i]) {
			return 1, elapsed, fmt.Errorf("%s %s %s input %d: response differs from the reference", md.name, backend, sideNames[s], i)
		}
		return 1, elapsed, nil
	}
}

// Per-model call sizes: a round of every model, backend and side takes
// at most about three seconds on one core, so several fit into one run;
// the deep models get fewer trials or sequences per call.
var (
	fullTrials = map[string]int{
		"lenet": 256, "alexnet": 48, "vgg11": 40, "vgg16": 4,
		"resnet18": 4, "squeezenet": 64, "dave": 40, "comma": 48,
	}
	lateTrials = map[string]int{
		"lenet": 256, "alexnet": 256, "vgg11": 256, "vgg16": 128,
		"resnet18": 32, "squeezenet": 256, "dave": 256, "comma": 256,
	}
	persistentSequences = map[string]int{
		"lenet": 2, "alexnet": 2, "vgg11": 2, "vgg16": 1,
		"resnet18": 1, "squeezenet": 2, "dave": 2, "comma": 2,
	}
)

// faultSeed is a model's campaign seed. It is fixed, not drawn from
// -seed, so every run replays the same faults: which site is drawn
// decides how much of the plan a trial replays and how soon a persistent
// fault is caught, and that is a different amount of work, not noise.
// -seed still picks the inputs the faults strike.
func faultSeed(name string) int64 {
	return int64(nameHash(name) >> 1)
}

// campaignCells runs single-bit-flip campaigns on one seeded input per
// call: the default scenario on fp32, BitFlipInt8 on int8. Both sides
// draw faults from the plain model's nodes (the clamps Ranger inserts are
// the corrector, not fault sites), so a pair replays the same sampled
// faults. late narrows the fault space to the last third of the model's
// profiled activation nodes. Every call repeats the same campaign, so
// each outcome must equal the first.
func campaignCells(late bool) func(context.Context, []*model) ([]*cell, error) {
	return func(ctx context.Context, zoo []*model) ([]*cell, error) {
		var cells []*cell
		for _, md := range zoo {
			trials, targets := fullTrials[md.name], plainNodes(md)
			if late {
				trials = lateTrials[md.name]
				var err error
				if targets, err = lateTargets(md); err != nil {
					return nil, err
				}
			}
			for _, backend := range []string{"fp32", "int8"} {
				c := &cell{model: md.name, family: backend, label: backend, span: "inject.run"}
				for s := range md.net {
					camp := ranger.Campaign{
						Model: md.net[s], Trials: trials, Seed: faultSeed(md.name),
						Workers: 1, TargetNodes: targets,
					}
					if backend == "int8" {
						camp.Scenario = ranger.BitFlipInt8{Flips: 1}
						camp.Calibration = md.calib
					}
					inputs := md.inputs[:1]
					c.run[s] = func(_, workers int) (int, time.Duration, error) {
						cc := camp
						cc.Workers = workers
						start := time.Now()
						out, err := cc.Run(ctx, inputs)
						elapsed := time.Since(start)
						if err != nil {
							return trials, elapsed, fmt.Errorf("%s %s campaign: %w", cc.Model.Name, backend, err)
						}
						return trials, elapsed, c.checkSame(s, fmt.Appendf(nil, "%+v", out))
					}
				}
				cells = append(cells, c)
			}
		}
		return cells, nil
	}
}

// plainNodes names every node of the plain model. As a campaign's
// TargetNodes it keeps the protected model's fault space, on activations
// and on stored state alike, to what the plain model has.
func plainNodes(md *model) []string {
	var names []string
	for _, n := range md.net[plain].Graph.Nodes() {
		names = append(names, n.Name())
	}
	return names
}

// lateTargets returns the last third of the model's profiled activation
// nodes in the protected plan's step order, leaving out nodes the model
// excludes from fault injection.
func lateTargets(md *model) ([]string, error) {
	var acts []string
	for name := range md.bounds {
		if !slices.Contains(md.net[plain].ExcludeFI, name) {
			acts = append(acts, name)
		}
	}
	cm, err := md.net[prot].CompileWith(ranger.CompileOptions{Observe: acts})
	if err != nil {
		return nil, err
	}
	acts = slices.DeleteFunc(acts, func(n string) bool { return cm.Plan.StepOf(n) < 0 })
	slices.SortFunc(acts, func(a, b string) int { return cm.Plan.StepOf(a) - cm.Plan.StepOf(b) })
	if len(acts) == 0 {
		return nil, fmt.Errorf("%s: no profiled activation nodes to target", md.name)
	}
	return acts[len(acts)-(len(acts)+2)/3:], nil
}

const (
	// persistentSeqLen bounds each sequence's inferences.
	persistentSeqLen = 16
	// persistentInputs is how many seeded inputs each sequence cycles
	// through; the campaign computes a clean reference for each per call.
	// They come from the samples the bounds were profiled on, so the
	// symptom detector fires on faults, not on activations of inputs it
	// has never seen.
	persistentInputs = 4
)

// persistentSurfaces are the persistent workload's fault surfaces.
var persistentSurfaces = []struct {
	label, family string
	surface       ranger.Surface
}{
	{"weight_fp32", "fp32", ranger.WeightSurface{}},
	{"weight_int8", "int8", ranger.WeightSurface{}},
	{"quantparam_int8", "int8", ranger.QuantParamSurface{}},
}

// persistentCells runs sequence campaigns with the symptom detector and
// scrub-from-golden repair, faults drawn from the plain model's stored
// state on both sides; every repair must reproduce the clean output, and
// every call's outcome must equal the first.
func persistentCells(ctx context.Context, zoo []*model) ([]*cell, error) {
	var cells []*cell
	for _, md := range zoo {
		maxima := make(map[string]float64, len(md.bounds))
		for name, b := range md.bounds {
			maxima[name] = b.High
		}
		for _, ps := range persistentSurfaces {
			c := &cell{model: md.name, family: ps.family, label: ps.label, span: "inject.run_persistent"}
			for s := range md.net {
				camp := ranger.Campaign{
					Model: md.net[s], Trials: persistentSequences[md.name], Seed: faultSeed(md.name),
					Workers: 1, TargetNodes: plainNodes(md),
					Surface: ps.surface, SequenceLen: persistentSeqLen, Repair: true,
					Detector: ranger.NewSymptomDetector(maxima, 1.0),
				}
				if ps.family == "int8" {
					camp.Scenario = ranger.BitFlipInt8{Flips: 1}
					camp.Calibration = md.calib
				}
				c.run[s] = func(_, workers int) (int, time.Duration, error) {
					cc := camp
					cc.Workers = workers
					start := time.Now()
					out, err := cc.RunPersistent(ctx, md.profiled)
					elapsed := time.Since(start)
					if err != nil {
						return 1, elapsed, fmt.Errorf("%s %s: %w", cc.Model.Name, ps.label, err)
					}
					if out.PostRepairOK != out.Repairs {
						return int(out.Inferences), elapsed, fmt.Errorf("%s %s: %d of %d repairs did not restore the clean output",
							cc.Model.Name, ps.label, out.Repairs-out.PostRepairOK, out.Repairs)
					}
					return int(out.Inferences), elapsed, c.checkSame(s, fmt.Appendf(nil, "%+v", out))
				}
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}
