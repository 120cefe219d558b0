package inject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// The campaign engine. Every entry point — Run/RunSlice, RunWithDetector,
// RunAdaptive, RunPersistent/RunPersistentSlice — builds one backend,
// draws each slot's fault sites from the slot's private stream, and runs
// the slots on one shard loop (backend.runShard): transient trials
// through one per-input loop (backend.runSlots), persistent sequences
// through backend.runSequences. A transient trial is a one-inference
// sequence with nothing persisted. Both run on the same worker
// interface: plant the sampled faults, infer from a clean checkpoint,
// scrub the worker back to golden.

// worker is one shard worker's execution surface over its private plan
// state; the five implementations cover the activation surface (fp32
// and int8), the weight surface (fp32 and int8) and the quantparam
// surface.
type worker interface {
	// plant installs one slot's sampled faults and returns their depth,
	// the earliest plan step that reads corrupted state. Activation
	// faults only record their sites here; the replay corrupts them in
	// flight. An error wrapping errDUE ends a sequence as a DUE.
	plant(sites []Site) (depth int, err error)
	// infer replays one inference of checkpointed input input under the
	// planted faults, showing the replayed values to det when non-nil,
	// and returns the fetch data, valid until the next infer or scrub.
	infer(input int, det Detector) ([]float32, error)
	// scrub restores the worker's state to golden, dropping the planted
	// faults: the end of every slot, and a persistent sequence's repair.
	scrub()
}

// backend is a campaign's execution substrate, built once per entry
// point: the compiled plan, its int8 quantization when Calibration is
// set, the campaign's inputs, the fault space slots draw from, the
// detector shown every inference, and the clean checkpoints and
// references of the inputs being replayed. Transient campaigns size each
// input's fault space once and checkpoint one input at a time; persistent
// ones checkpoint every input up front, since a sequence cycles through
// them. Workers share all of it read-only.
type backend struct {
	c       *Campaign
	plan    *graph.Plan
	qp      *graph.QPlan // nil on the fp32 backend
	det     Detector
	inputs  []graph.Feeds
	spaces  []*FaultSpace // transient: each input's fault space, sized on first use
	space   *FaultSpace
	clean   *graph.PlanState
	qclean  *graph.QPlanState
	ckpts   []*graph.Checkpoint
	qckpts  []*graph.QCheckpoint
	refs    []*tensor.Tensor
	outNode *graph.Node // the fetch node: int8 detectors observe only it
}

// newBackend compiles the campaign's plan over inputs and, when
// Calibration is set, quantizes it. Persistent surfaces size their fault
// space here, from the stored state, and checkpoint every input;
// transient campaigns size one per input (Campaign.faultSpace) and
// checkpoint it when its slots run.
func (c *Campaign) newBackend(inputs []graph.Feeds) (*backend, error) {
	plan, err := c.compile()
	if err != nil {
		return nil, err
	}
	b := &backend{c: c, plan: plan, det: c.Detector, inputs: inputs}
	if c.Calibration == nil {
		b.clean = plan.NewState()
	} else {
		if b.qp, err = graph.Quantize(plan, c.Calibration); err != nil {
			return nil, fmt.Errorf("inject: quantize %s: %w", c.Model.Name, err)
		}
		b.qclean = b.qp.NewState()
		var ok bool
		if b.outNode, ok = c.Model.Graph.Node(c.Model.Output); !ok {
			return nil, fmt.Errorf("inject: model output %q not in graph", c.Model.Output)
		}
	}
	if !c.surface().Persistent() {
		b.spaces = make([]*FaultSpace, len(inputs))
		return b, nil
	}
	if b.space, err = b.storedSpace(); err != nil {
		return nil, err
	}
	if err := b.checkpoint(nil, inputs...); err != nil {
		return nil, err
	}
	return b, nil
}

// checkpoint runs the clean pass of each input, replacing the held
// checkpoints and references; workers then replay input i of this set.
// References are checkpoint-owned, so they outlive later calls. hook,
// when non-nil, watches the fp32 clean passes (Plan.CheckpointHook).
func (b *backend) checkpoint(hook graph.Hook, inputs ...graph.Feeds) error {
	b.ckpts, b.qckpts = make([]*graph.Checkpoint, len(inputs)), make([]*graph.QCheckpoint, len(inputs))
	b.refs = make([]*tensor.Tensor, len(inputs))
	for i, feeds := range inputs {
		var err error
		if b.qp != nil {
			b.qckpts[i], err = b.qp.Checkpoint(b.qclean, feeds)
			if err == nil {
				b.refs[i] = b.qckpts[i].Output(0)
			}
		} else {
			b.ckpts[i], err = b.plan.CheckpointHook(b.clean, feeds, hook)
			if err == nil {
				b.refs[i] = b.ckpts[i].Output(0)
			}
		}
		if err != nil {
			return fmt.Errorf("inject: clean run: %w", err)
		}
	}
	return nil
}

// newWorker builds one worker for the campaign's surface and backend.
func (b *backend) newWorker() worker {
	switch b.c.surface().(type) {
	case WeightSurface:
		if b.qp != nil {
			return &int8WeightWorker{storedI8: b.newStoredI8(), bufs: map[string][]int8{}}
		}
		w := &fp32WeightWorker{b: b, st: b.plan.NewState(), over: map[string]*tensor.Tensor{}, fresh: map[string]bool{}}
		w.hook = func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
			w.det.Observe(n, out)
			return nil
		}
		return w
	case QuantParamSurface:
		return &quantParamWorker{storedI8: b.newStoredI8()}
	}
	if b.qp != nil {
		w := &int8Worker{b: b, st: b.qp.NewState(), scen: b.c.scenario(), struck: newStruckSites(b.qp.StepOf, b.qp.Steps())}
		w.makeHook()
		return w
	}
	w := &fp32Worker{b: b, st: b.plan.NewState(), scen: b.c.scenario(), format: b.c.format(), struck: newStruckSites(b.plan.StepOf, b.plan.Steps())}
	w.makeHook()
	return w
}

// slotWorker is one shard's execution context: its worker, the detector
// it shows inferences to (its own clone when the detector is
// cloneable), and its reusable sampling stream and site buffer.
type slotWorker struct {
	worker
	det   Detector
	scen  Scenario
	bits  int
	space *FaultSpace
	rng   *rand.Rand
	buf   []Site
}

func (b *backend) newSlotWorker() *slotWorker {
	sw := &slotWorker{
		worker: b.newWorker(),
		det:    b.det,
		scen:   b.c.scenario(),
		bits:   b.c.bits(),
		space:  b.space,
		rng:    rand.New(&splitmixSource{}),
	}
	if cd, ok := b.det.(CloneableDetector); ok {
		sw.det = cd.CloneDetector()
	}
	return sw
}

// draw samples one slot's sites from its private stream seed (the
// worker's RNG reseeded, so no slot allocates a generator), with the
// primary site confined to band when non-nil. The sites are valid until
// the next draw.
func (sw *slotWorker) draw(seed int64, band *Band) []Site {
	sw.rng.Seed(seed)
	sw.buf = sw.scen.AppendSites(sw.buf[:0], sw.space, sw.bits, sw.rng, band)
	return sw.buf
}

// runShard is the one shard loop. It executes n slots — transient
// trials or persistent sequences — across workers, each shard with its
// own slotWorker; body runs one slot and lands its result in the
// caller's slot. key, when non-nil, orders each shard's block by key
// (injection depth); otherwise the block runs in slot order. A detector
// that is not a CloneableDetector forces one worker, which then sees
// every slot in slot order. emit, when non-nil, is called under a
// shard-wide mutex as each slot completes. Workers check ctx between
// slots, and the first per-slot error is returned after all workers
// finish, so a shard never half-reports.
func (b *backend) runShard(ctx context.Context, n int, key func(sw *slotWorker, slot int) int, body func(sw *slotWorker, slot int) error, emit func(slot int)) error {
	workers := parallel.Resolve(b.c.Workers)
	if _, ok := b.det.(CloneableDetector); b.det != nil && !ok {
		workers = 1
	}
	errs := make([]error, n)
	var mu sync.Mutex
	parallel.Shard(workers, n, func(lo, hi int) {
		sw := b.newSlotWorker()
		order := parallel.OrderByKey(lo, hi, func(slot int) int {
			if key == nil {
				return 0
			}
			return key(sw, slot)
		})
		for _, slot := range order {
			if err := ctx.Err(); err != nil {
				errs[slot] = err
				return
			}
			if err := body(sw, slot); err != nil {
				errs[slot] = err
				continue
			}
			if emit != nil {
				mu.Lock()
				emit(slot)
				mu.Unlock()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// slot is one unit of campaign work — a transient trial or a persistent
// sequence — with the private stream it samples from.
type slot struct {
	seq     int64 // position in the sequence grid or the stratified allocation
	seed    int64
	stratum int   // stratified campaigns' stratum; -1 for uniform sequences
	band    *Band // the stratum's primary-site constraint; nil when uniform
	// input and trial locate a transient trial: the input it replays and
	// its grid trial index, or its stratum-local index when stratified.
	input, trial int
}

// prepareInput makes input ii the held one: it sizes the input's fault
// space (once per backend) and checkpoints its clean pass, which the
// detector, if any, is reset for and watches.
func (b *backend) prepareInput(ii int) error {
	if b.spaces[ii] == nil {
		fs, err := b.c.faultSpace(b.plan, b.inputs[ii])
		if err != nil {
			return err
		}
		b.spaces[ii] = fs
	}
	b.space = b.spaces[ii]
	var hook graph.Hook
	if b.det != nil {
		b.det.Reset()
		hook = func(n *graph.Node, t *tensor.Tensor) *tensor.Tensor {
			b.det.Observe(n, t)
			return nil
		}
	}
	return b.checkpoint(hook, b.inputs[ii])
}

// runSlots is the one transient trial loop. For each input ii, in input
// order, that has slots — slotsOf(ii) — it checks ctx, prepares the
// input, and runs its slots on the shard loop, streaming each through
// OnTrial as it completes; done then receives the input's verdicts in
// slot order, and whether the detector, if any, fired on the input's
// clean pass. Without a detector each shard groups its block by
// injection depth, so deep-layer faults replay back to back; detector
// trials replay from step 0 and keep slot order. Only one input's slots
// and verdicts are live at a time.
func (b *backend) runSlots(ctx context.Context, slotsOf func(ii int) []slot, done func(slots []slot, verdicts []trialVerdict, flagged bool)) error {
	for ii := range b.inputs {
		slots := slotsOf(ii)
		if len(slots) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := b.prepareInput(ii); err != nil {
			return err
		}
		flagged := b.det != nil && b.det.Detected()
		verdicts := make([]trialVerdict, len(slots))
		var key func(sw *slotWorker, k int) int
		if b.det == nil {
			key = func(sw *slotWorker, k int) int {
				depth, _ := sw.plant(sw.draw(slots[k].seed, slots[k].band))
				sw.scrub()
				return depth
			}
		}
		var emit func(k int)
		if b.c.OnTrial != nil {
			emit = func(k int) { b.c.OnTrial(verdicts[k].result(slots[k])) }
		}
		err := b.runShard(ctx, len(slots), key, func(sw *slotWorker, k int) (err error) {
			verdicts[k], err = b.runTrial(sw, slots[k])
			return err
		}, emit)
		if err != nil {
			return err
		}
		done(slots, verdicts, flagged)
	}
	// A cancellation that lands as (or after) the last trials complete
	// leaves no per-trial error behind; surface it anyway so a cancelled
	// campaign can never masquerade as a completed one.
	return ctx.Err()
}

// runTrial executes transient trial s on sw — a one-inference sequence
// with nothing persisted: draw the sites, plant them, replay the held
// input from its checkpoint and judge the fetch against the reference.
// Without a detector the replay covers only the fault's cone and starts
// at its depth; a detector observes every node, so its trials replay
// from step 0. After warmup a trial allocates nothing.
func (b *backend) runTrial(sw *slotWorker, s slot) (trialVerdict, error) {
	t := time.Now()
	defer sw.scrub()
	depth, err := sw.plant(sw.draw(s.seed, s.band))
	if err != nil {
		return trialVerdict{}, err
	}
	if sw.det != nil {
		sw.det.Reset()
		depth = 0
	}
	faulty, err := sw.infer(0, sw.det)
	elapsed := time.Since(t)
	if err != nil {
		return trialVerdict{}, err
	}
	v := b.c.judgeData(b.refs[0], faulty)
	v.start, v.masked, v.elapsed = depth, bitsEqual(faulty, b.refs[0].Data()), elapsed
	if sw.det != nil {
		v.detected = sw.det.Detected()
	}
	return v, nil
}

// struckSites is an activation worker's record of the planted sites:
// grouped by node (sampling order kept within each node), with the
// struck plan steps and elements. All storage recycles across trials.
type struckSites struct {
	stepOf  func(string) int
	nSteps  int
	byNode  map[string][]Site
	used    []string
	strikes *graph.Strikes
}

func newStruckSites(stepOf func(string) int, nSteps int) struckSites {
	return struckSites{stepOf: stepOf, nSteps: nSteps, byNode: map[string][]Site{}, strikes: graph.NewStrikes(nSteps)}
}

// plant records sites, replacing the previous trial's, and returns the
// earliest struck step. Sites naming nodes the plan does not produce are
// ignored, as the name-keyed hook lookup always ignored them.
func (s *struckSites) plant(sites []Site) int {
	for _, name := range s.used {
		s.byNode[name] = s.byNode[name][:0]
	}
	s.used = s.used[:0]
	s.strikes.Reset()
	depth := s.nSteps
	for _, site := range sites {
		si := s.stepOf(site.Node)
		if si < 0 {
			continue
		}
		if len(s.byNode[site.Node]) == 0 {
			s.used = append(s.used, site.Node)
		}
		s.byNode[site.Node] = append(s.byNode[site.Node], site)
		s.strikes.Add(si, site.Elem)
		depth = min(depth, si)
	}
	return depth
}

// corruptFloat corrupts an fp32 value through the datapath's
// fixed-point word: the scenario acts on the value's encoding, and the
// faulty word decodes back.
func corruptFloat(scen Scenario, f fixpoint.Format, v float32, s Site) (float32, error) {
	w, err := scen.Corrupt(f.Encode(v), f.Bits(), s)
	return f.Decode(w), err
}

// corruptInt8 corrupts a stored int8 as an 8-bit word.
func corruptInt8(scen Scenario, q int8, s Site) (int8, error) {
	w, err := scen.Corrupt(uint64(uint8(q)), 8, s)
	return int8(uint8(w)), err
}

// undo records one in-place activation corruption for scrub to revert,
// keeping the state's buffers byte-clean, so no later read path may
// ever observe a stale fault.
type undo[T float32 | int8] struct {
	data []T
	idx  int
	v    T
}

func revert[T float32 | int8](log []undo[T]) []undo[T] {
	for i := len(log) - 1; i >= 0; i-- {
		u := log[i]
		u.data[u.idx] = u.v
	}
	return log[:0]
}

// fp32Worker is the fp32 activation worker: its hook corrupts the struck
// elements of operator outputs in place as the replay produces them (the
// struck tensors are slot-backed or per-run values every replay refills,
// so the hot path never clones one) and shows every node's output to the
// detector, if any. Without a detector the replay covers only the
// fault's cone, window by window (Plan.RunCone, told the struck elements
// through the planted Strikes); with one it replays every step from 0
// (Plan.RunFrom).
type fp32Worker struct {
	b      *backend
	st     *graph.PlanState
	scen   Scenario
	format fixpoint.Format
	struck struckSites
	undo   []undo[float32]
	det    Detector // current inference's detector (hook target)
	err    error
	hook   graph.Hook
}

func (w *fp32Worker) makeHook() {
	w.hook = func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
		ss := w.struck.byNode[n.Name()]
		if len(ss) > 0 && w.err == nil {
			data := out.Data()
			for _, s := range ss {
				if s.Elem < 0 || s.Elem >= len(data) {
					w.err = siteBoundsError(s, len(data))
					return nil
				}
				v, err := corruptFloat(w.scen, w.format, data[s.Elem], s)
				if err != nil {
					w.err = fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
					return nil
				}
				w.undo = append(w.undo, undo[float32]{data, s.Elem, data[s.Elem]})
				data[s.Elem] = v
			}
		}
		if w.det != nil {
			w.det.Observe(n, out)
		}
		return nil
	}
}

func (w *fp32Worker) plant(sites []Site) (int, error) { return w.struck.plant(sites), nil }

func (w *fp32Worker) infer(input int, det Detector) ([]float32, error) {
	w.det, w.err = det, nil
	var outs []*tensor.Tensor
	var err error
	if det != nil {
		outs, err = w.b.plan.RunFrom(w.st, w.b.ckpts[input], 0, w.hook)
	} else {
		outs, _, err = w.b.plan.RunCone(w.st, w.b.ckpts[input], w.struck.strikes, w.hook)
	}
	if w.err != nil {
		return nil, w.err
	}
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0].Data(), nil
}

func (w *fp32Worker) scrub() { w.undo = revert(w.undo) }

// int8Worker is the int8 activation worker: faults strike the stored
// int8 words of operator outputs in place, and the replay covers the
// fault's cone (QPlan.RunCone).
type int8Worker struct {
	b      *backend
	st     *graph.QPlanState
	scen   Scenario
	struck struckSites
	undo   []undo[int8]
	err    error
	hook   graph.QHook
}

func (w *int8Worker) makeHook() {
	w.hook = func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
		ss := w.struck.byNode[n.Name()]
		if len(ss) == 0 || w.err != nil {
			return nil
		}
		data := out.Data()
		for _, s := range ss {
			if s.Elem < 0 || s.Elem >= len(data) {
				w.err = siteBoundsError(s, len(data))
				return nil
			}
			q, err := corruptInt8(w.scen, data[s.Elem], s)
			if err != nil {
				w.err = fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
				return nil
			}
			w.undo = append(w.undo, undo[int8]{data, s.Elem, data[s.Elem]})
			data[s.Elem] = q
		}
		return nil
	}
}

func (w *int8Worker) plant(sites []Site) (int, error) { return w.struck.plant(sites), nil }

// infer ignores det: int8 detector campaigns are rejected by validate.
func (w *int8Worker) infer(input int, _ Detector) ([]float32, error) {
	w.err = nil
	outs, _, err := w.b.qp.RunCone(w.st, w.b.qckpts[input], w.struck.strikes, w.hook)
	if w.err != nil {
		return nil, w.err
	}
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0].Data(), nil
}

func (w *int8Worker) scrub() { w.undo = revert(w.undo) }
