package inject

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ranger/internal/graph"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// Persistent-surface campaign engine. Transient (activation) campaigns
// ask "does one corrupted inference misbehave?"; persistent campaigns
// ask "how long does a stuck fault in stored state misbehave before it
// is caught?". A trial here is a *sequence*: one fault is injected into
// persistent state (weight memory or quantization parameters), then
// SequenceLen inferences run over the cycling input set, each judged
// against its clean reference and each shown to the campaign's Detector.
// The sequence ends at detection (optionally triggering a
// scrub-from-golden repair whose post-repair output is checked
// byte-exactly against the clean reference) or when the length budget
// runs out. The grid is Trials sequences — inputs cycle inside a
// sequence instead of multiplying the grid the way transient campaigns
// do.
//
// Determinism contract: sequence s always samples its fault from the
// private stream sequenceSeed(Seed, s) (adaptiveSeed(Seed, stratum,
// local) under stratified sampling), sequences are embarrassingly
// parallel, and results fold in sequence order — so a fixed seed yields
// byte-identical PersistentOutcomes at every worker count, and
// RunPersistentSlice slices fold into exactly one uninterrupted run
// (the rangerd durable-resume primitive).
//
// Execution always replays checkpointed suffixes: each input's clean
// pass is checkpointed once, and every inference replays only the plan
// steps at or after the fault's depth — the earliest step that reads
// the corrupted state — which is byte-identical to a full run because
// everything before that step is untouched by construction. The repair
// path reuses the same checkpoints, so a scrub replays only the
// affected layer suffix instead of re-running the model.

// DefaultSequenceLen is how many inferences a persistent sequence runs
// when Campaign.SequenceLen is 0: long enough that detection latency
// distributions resolve, short enough that undetected sequences stay
// cheap.
const DefaultSequenceLen = 32

// quantParamBytes is the serialized size of one quantized step's
// parameters on the quantparam surface: four little-endian bytes of the
// float32 scale followed by one byte of the (int8-clamped) zero point.
const quantParamBytes = 5

// sequenceSeed derives the fault-sampling seed for persistent sequence
// s. It mirrors trialSeed's Mix64 chain under a distinct domain
// constant, so persistent streams never collide with uniform or
// adaptive ones.
func sequenceSeed(seed, seq int64) int64 {
	h := parallel.Mix64(uint64(seed) ^ 0x9E125157E27C5EED)
	h = parallel.Mix64(h ^ uint64(seq+1))
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// errDUE marks a persistent fault that made the plan unexecutable — a
// corrupted quantization parameter under which a kernel cannot be
// rebuilt. The hardware analogue is a detected unrecoverable error, so
// the sequence ends immediately with DUE set instead of failing the
// campaign.
var errDUE = errors.New("inject: persistent fault made the plan unbuildable (DUE)")

// SequenceResult is one completed persistent sequence's judged result,
// streamed through Campaign.OnSequence while the campaign runs.
type SequenceResult struct {
	// Sequence is the sequence's position in the campaign grid (uniform
	// sampling) or the global allocation sequence (stratified); Seq is
	// the same value, kept as the durable frontier field name consumers
	// of TrialResult already use.
	Sequence int64
	Seq      int64
	// Node names the struck surface node (the first sampled site's).
	Node string
	// Detected reports whether the Detector flagged any inference;
	// DetectLatency is the 1-based index of the flagged inference
	// (inferences-to-detection), 0 when undetected.
	Detected      bool
	DetectLatency int
	// SDCs counts inferences judged as SDCs before the sequence ended;
	// FirstSDC is the 1-based index of the first (inferences-to-SDC), 0
	// when none occurred.
	SDCs     int
	FirstSDC int
	// Repaired reports that detection triggered the scrub-from-golden
	// repair; PostRepairOK that the post-repair replay reproduced the
	// clean reference byte-exactly.
	Repaired     bool
	PostRepairOK bool
	// DUE marks a sequence whose fault made the plan unexecutable
	// (quant-param corruption the kernels cannot be rebuilt under); no
	// inferences ran.
	DUE bool
	// Inferences is how many inferences the sequence executed.
	Inferences int
	// Stratum indexes the stratified engine's stratum definitions; -1
	// under uniform sampling.
	Stratum int
}

// PersistentOutcome aggregates a persistent campaign's results.
type PersistentOutcome struct {
	// Sequences and Inferences count completed sequences and the
	// inferences they executed.
	Sequences  int64
	Inferences int64
	// Detected counts sequences the Detector flagged;
	// DetectionLatencies holds their inferences-to-detection in sequence
	// order — the detection latency distribution.
	Detected           int
	DetectionLatencies []int
	// FirstSDCLatencies holds, for every sequence with at least one SDC,
	// the 1-based index of its first SDC inference, in sequence order.
	FirstSDCLatencies []int
	// SDCsBeforeDetection counts SDC inferences in detected sequences
	// (corrupt results served before the fault was caught);
	// UndetectedSDC counts SDC inferences in sequences that ended
	// undetected.
	SDCsBeforeDetection int
	UndetectedSDC       int
	// Repairs counts detection-triggered scrubs; PostRepairOK how many
	// reproduced the clean reference byte-exactly afterwards.
	Repairs      int
	PostRepairOK int
	// DUEs counts sequences whose fault made the plan unexecutable.
	DUEs int
	// Strata, Converged, and Rounds report the stratified engine's
	// per-stratum evidence (empty under uniform sampling); the stratum
	// SDC criterion is "the sequence served at least one SDC".
	Strata    []StratumResult
	Converged bool
	Rounds    int
}

// DetectionRate returns the fraction of sequences the detector caught;
// 0 for an empty campaign.
func (o PersistentOutcome) DetectionRate() float64 {
	if o.Sequences == 0 {
		return 0
	}
	return float64(o.Detected) / float64(o.Sequences)
}

// MeanDetectionLatency returns the mean inferences-to-detection over
// detected sequences; 0 when nothing was detected.
func (o PersistentOutcome) MeanDetectionLatency() float64 {
	return meanInt(o.DetectionLatencies)
}

// MeanFirstSDCLatency returns the mean inferences-to-first-SDC over
// sequences that produced one; 0 when none did.
func (o PersistentOutcome) MeanFirstSDCLatency() float64 {
	return meanInt(o.FirstSDCLatencies)
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// Apply folds the sequence into a PersistentOutcome, in sequence order.
// It is the one fold: the live engine, slice resume, and rangerd's
// persisted-chain refold all aggregate through it, which is what makes
// their outcomes byte-identical.
func (r SequenceResult) Apply(o *PersistentOutcome) {
	o.Sequences++
	o.Inferences += int64(r.Inferences)
	if r.DUE {
		o.DUEs++
		return
	}
	if r.Detected {
		o.Detected++
		o.DetectionLatencies = append(o.DetectionLatencies, r.DetectLatency)
		o.SDCsBeforeDetection += r.SDCs
	} else {
		o.UndetectedSDC += r.SDCs
	}
	if r.FirstSDC > 0 {
		o.FirstSDCLatencies = append(o.FirstSDCLatencies, r.FirstSDC)
	}
	if r.Repaired {
		o.Repairs++
		if r.PostRepairOK {
			o.PostRepairOK++
		}
	}
}

// sdc reports whether the sequence served at least one silently corrupt
// result — the stratified engine's per-sequence SDC criterion.
func (r SequenceResult) sdc() bool { return r.SDCs > 0 }

// sequenceLen returns the effective persistent sequence length.
func (c *Campaign) sequenceLen() int {
	if c.SequenceLen == 0 {
		return DefaultSequenceLen
	}
	return c.SequenceLen
}

// PersistentGridSize returns the linearized size of a persistent
// campaign's sequence grid: Trials sequences. Inputs cycle within each
// sequence instead of multiplying the grid as they do for transient
// campaigns.
func (c *Campaign) PersistentGridSize() int64 { return int64(c.Trials) }

// validatePersistent rejects unrunnable persistent campaign
// configurations on top of the transient checks.
func (c *Campaign) validatePersistent(inputs []graph.Feeds) error {
	if err := c.validate(inputs); err != nil {
		return err
	}
	surf := c.surface()
	if !surf.Persistent() {
		return fmt.Errorf("inject: surface %q is transient; run it through Run", surf.Name())
	}
	if err := surf.Validate(c); err != nil {
		return err
	}
	if c.SequenceLen < 0 {
		return fmt.Errorf("inject: sequence length = %d", c.SequenceLen)
	}
	if c.Repair && c.Detector == nil {
		return fmt.Errorf("inject: Repair without a Detector: detection is what triggers the scrub")
	}
	return nil
}

// persistentWorker is one worker's sequence-execution surface over its
// private plan state. inject applies one sampled fault set to the
// worker's persistent state and returns the fault's depth (the earliest
// plan step reading corrupted state); an error wrapping errDUE ends the
// sequence as a DUE. runInf replays one inference from the given depth,
// showing replayed values to det when non-nil, and returns the fetch
// data (valid until the worker's next inference). repair scrubs the
// persistent state back to golden; clear does the same between
// sequences (they are one operation — scrubbing IS restoring golden).
type persistentWorker interface {
	inject(sites []Site) (depth int, err error)
	runInf(input, depth int, det Detector) ([]float32, error)
	repair()
	clear()
}

// persistentExec is a persistent campaign's execution backend: the
// surface's fault space, the per-element bit width faults sample over,
// the per-input clean references, and the worker factory. Checkpoints
// and references are shared immutably across workers.
type persistentExec struct {
	space     *FaultSpace
	bits      int
	refs      []*tensor.Tensor
	newWorker func() (persistentWorker, error)
}

// surfaceSpace assembles a fault space over surface-specific nodes.
func surfaceSpace(surface string, names []string, sizes []int) (*FaultSpace, error) {
	fs := &FaultSpace{nodes: names, sizes: sizes}
	for _, sz := range sizes {
		fs.total += int64(sz)
	}
	if fs.total == 0 {
		return nil, fmt.Errorf("inject: empty %s fault space", surface)
	}
	return fs, nil
}

// filterSurfaceNodes applies the campaign's Exclude and TargetNodes
// restrictions to a surface's node set. Surface nodes have their own
// names (weight tensor names on the weight surface), so restrictions
// must name surface nodes; the model's ExcludeFI list names activation
// nodes and deliberately does not apply here — the paper's last-FC
// exclusion is an argument about output activations, not stored
// weights.
func (c *Campaign) filterSurfaceNodes(names []string, sizes []int) ([]string, []int) {
	if len(c.Exclude) == 0 && len(c.TargetNodes) == 0 {
		return names, sizes
	}
	excluded := make(map[string]bool, len(c.Exclude))
	for _, n := range c.Exclude {
		excluded[n] = true
	}
	var targets map[string]bool
	if len(c.TargetNodes) > 0 {
		targets = make(map[string]bool, len(c.TargetNodes))
		for _, n := range c.TargetNodes {
			targets[n] = true
		}
	}
	var fn []string
	var fz []int
	for i, name := range names {
		if excluded[name] || (targets != nil && !targets[name]) {
			continue
		}
		fn = append(fn, name)
		fz = append(fz, sizes[i])
	}
	return fn, fz
}

// newPersistentExec builds the campaign's persistent execution backend
// for its surface and numeric backend, capturing one checkpoint per
// input.
func (c *Campaign) newPersistentExec(inputs []graph.Feeds) (*persistentExec, error) {
	plan, err := c.compile(nil)
	if err != nil {
		return nil, err
	}
	switch c.surface().(type) {
	case WeightSurface:
		if c.Calibration != nil {
			return c.newPersistentInt8Weight(plan, inputs)
		}
		return c.newPersistentFP32Weight(plan, inputs)
	case QuantParamSurface:
		return c.newPersistentQuantParam(plan, inputs)
	}
	return nil, fmt.Errorf("inject: no persistent engine for surface %q", c.surface().Name())
}

// newPersistentFP32Weight builds the fp32 weight-memory backend: faults
// flip bits of the campaign's fixed-point encoding of stored Variable
// tensors (the same simulated-datapath encoding activation faults use),
// installed as per-state weight overrides so the shared golden weights
// stay untouched and repair is an override drop.
func (c *Campaign) newPersistentFP32Weight(plan *graph.Plan, inputs []graph.Feeds) (*persistentExec, error) {
	cleanState := plan.NewState()
	ckpts := make([]*graph.Checkpoint, len(inputs))
	refs := make([]*tensor.Tensor, len(inputs))
	for i, feeds := range inputs {
		ck, err := plan.Checkpoint(cleanState, feeds)
		if err != nil {
			return nil, fmt.Errorf("inject: clean run: %w", err)
		}
		ckpts[i] = ck
		refs[i] = ck.Output(0)
	}
	names, sizes := plan.Weights()
	names, sizes = c.filterSurfaceNodes(names, sizes)
	fs, err := surfaceSpace("weight", names, sizes)
	if err != nil {
		return nil, err
	}
	depth := make(map[string]int, len(names))
	for _, name := range names {
		d := plan.VarDepth(name)
		if d < 0 {
			d = 0
		}
		depth[name] = d
	}
	newWorker := func() (persistentWorker, error) {
		w := &fp32WeightWorker{
			c:     c,
			plan:  plan,
			st:    plan.NewState(),
			ckpts: ckpts,
			depth: depth,
			over:  map[string]*tensor.Tensor{},
			fresh: map[string]bool{},
		}
		w.hook = func(n *graph.Node, out *tensor.Tensor) *tensor.Tensor {
			w.det.Observe(n, out)
			return nil
		}
		return w, nil
	}
	return &persistentExec{space: fs, bits: c.format().Bits(), refs: refs, newWorker: newWorker}, nil
}

// fp32WeightWorker executes sequences on the fp32 backend: struck
// weights are cloned from golden, corrupted in the clone, and installed
// as the state's Variable overrides (honored by replay and checkpoint
// restore alike). Clones recycle across sequences, so steady-state
// injection allocates nothing.
type fp32WeightWorker struct {
	c     *Campaign
	plan  *graph.Plan
	st    *graph.PlanState
	ckpts []*graph.Checkpoint
	depth map[string]int
	over  map[string]*tensor.Tensor // recycled override clones, per weight
	fresh map[string]bool           // overrides refreshed this sequence
	det   Detector                  // current inference's detector (hook target)
	hook  graph.Hook
}

func (w *fp32WeightWorker) inject(sites []Site) (int, error) {
	minDepth := w.plan.Steps()
	for _, s := range sites {
		t := w.over[s.Node]
		if !w.fresh[s.Node] {
			golden := w.plan.VarValue(s.Node)
			if golden == nil {
				return 0, fmt.Errorf("inject: no stored weight %q", s.Node)
			}
			if t == nil {
				t = golden.Clone()
				w.over[s.Node] = t
			} else {
				copy(t.Data(), golden.Data())
			}
			w.fresh[s.Node] = true
			if err := w.plan.OverrideVar(w.st, s.Node, t); err != nil {
				return 0, err
			}
		}
		if s.Elem < 0 || s.Elem >= t.Size() {
			return 0, siteBoundsError(s, t.Size())
		}
		v, err := w.c.scenario().Corrupt(w.c.format(), t.Data()[s.Elem], s)
		if err != nil {
			return 0, fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
		}
		t.Data()[s.Elem] = v
		if d := w.depth[s.Node]; d < minDepth {
			minDepth = d
		}
	}
	return minDepth, nil
}

func (w *fp32WeightWorker) runInf(input, depth int, det Detector) ([]float32, error) {
	var hook graph.Hook
	if det != nil {
		w.det = det
		hook = w.hook
	}
	outs, err := w.plan.RunFrom(w.st, w.ckpts[input], depth, hook)
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0].Data(), nil
}

func (w *fp32WeightWorker) repair() {
	w.st.ClearVarOverrides()
	for k := range w.fresh {
		delete(w.fresh, k)
	}
}

func (w *fp32WeightWorker) clear() { w.repair() }

// quantizeForPersistent builds the shared int8 execution substrate:
// quantized plan, per-input checkpoints and clean references, and the
// model's output node (the one value detectors observe on this backend;
// int8 internals are not fp32 tensors, so symptom detection sees only
// the dequantized fetch — document this asymmetry in results).
func (c *Campaign) quantizeForPersistent(plan *graph.Plan, inputs []graph.Feeds) (*graph.QPlan, []*graph.QCheckpoint, []*tensor.Tensor, *graph.Node, error) {
	qp, err := graph.Quantize(plan, c.Calibration)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("inject: quantize %s: %w", c.Model.Name, err)
	}
	cleanState := qp.NewState()
	ckpts := make([]*graph.QCheckpoint, len(inputs))
	refs := make([]*tensor.Tensor, len(inputs))
	for i, feeds := range inputs {
		ck, err := qp.Checkpoint(cleanState, feeds)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("inject: clean run: %w", err)
		}
		ckpts[i] = ck
		refs[i] = ck.Output(0)
	}
	var outNode *graph.Node
	for _, n := range c.Model.Graph.Nodes() {
		if n.Name() == c.Model.Output {
			outNode = n
			break
		}
	}
	if outNode == nil {
		return nil, nil, nil, nil, fmt.Errorf("inject: model output %q not in graph", c.Model.Output)
	}
	return qp, ckpts, refs, outNode, nil
}

// newPersistentInt8Weight builds the int8 weight-memory backend: faults
// flip bits of the stored quantized weight bytes of Dense/Conv kernels,
// materialized as per-state private kernels so the shared golden
// kernels stay untouched.
func (c *Campaign) newPersistentInt8Weight(plan *graph.Plan, inputs []graph.Feeds) (*persistentExec, error) {
	qp, ckpts, refs, outNode, err := c.quantizeForPersistent(plan, inputs)
	if err != nil {
		return nil, err
	}
	names, sizes, err := qp.StoredWeights()
	if err != nil {
		return nil, err
	}
	names, sizes = c.filterSurfaceNodes(names, sizes)
	fs, err := surfaceSpace("weight", names, sizes)
	if err != nil {
		return nil, err
	}
	scen := c.scenario().(Int8Scenario) // checked in validate
	newWorker := func() (persistentWorker, error) {
		return &int8WeightWorker{
			qp:      qp,
			st:      qp.NewState(),
			ckpts:   ckpts,
			scen:    scen,
			outNode: outNode,
			bufs:    map[string][]int8{},
		}, nil
	}
	return &persistentExec{space: fs, bits: 8, refs: refs, newWorker: newWorker}, nil
}

// int8WeightWorker executes sequences on the int8 backend: struck
// weight buffers are materialized from golden as per-state kernels and
// corrupted in place; repair drops the private kernels, so the next
// materialization rebuilds from golden.
type int8WeightWorker struct {
	qp      *graph.QPlan
	st      *graph.QPlanState
	ckpts   []*graph.QCheckpoint
	scen    Int8Scenario
	outNode *graph.Node
	bufs    map[string][]int8 // this sequence's materialized weight buffers
}

func (w *int8WeightWorker) inject(sites []Site) (int, error) {
	minDepth := w.qp.Steps()
	for _, s := range sites {
		buf, ok := w.bufs[s.Node]
		if !ok {
			var err error
			buf, err = w.qp.MaterializeWeights(w.st, s.Node)
			if err != nil {
				return 0, err
			}
			w.bufs[s.Node] = buf
		}
		if s.Elem < 0 || s.Elem >= len(buf) {
			return 0, siteBoundsError(s, len(buf))
		}
		q, err := w.scen.CorruptInt8(buf[s.Elem], s)
		if err != nil {
			return 0, fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
		}
		buf[s.Elem] = q
		if d := w.qp.StepOf(s.Node); d >= 0 && d < minDepth {
			minDepth = d
		}
	}
	return minDepth, nil
}

func (w *int8WeightWorker) runInf(input, depth int, det Detector) ([]float32, error) {
	outs, err := w.qp.RunFrom(w.st, w.ckpts[input], depth, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	if det != nil {
		det.Observe(w.outNode, outs[0])
	}
	return outs[0].Data(), nil
}

func (w *int8WeightWorker) repair() {
	w.st.ClearOverrides()
	for k := range w.bufs {
		delete(w.bufs, k)
	}
}

func (w *int8WeightWorker) clear() { w.repair() }

// newPersistentQuantParam builds the quant-param backend, the uniquely
// int8 persistent surface: each corruptible quantized step contributes
// quantParamBytes serialized parameter bytes (scale then zero point) to
// the fault space, and a struck step requantizes into — while every
// consumer interprets its input under — the corrupted parameters. The
// node set applies the same corruptibility predicate as activation
// faults (quant params parameterize step outputs, so the last-FC
// exclusion argument carries over).
func (c *Campaign) newPersistentQuantParam(plan *graph.Plan, inputs []graph.Feeds) (*persistentExec, error) {
	qp, ckpts, refs, outNode, err := c.quantizeForPersistent(plan, inputs)
	if err != nil {
		return nil, err
	}
	corruptible := corruptibleFilter(c.Model, c.Exclude, c.TargetNodes)
	nodeByName := make(map[string]*graph.Node)
	for _, n := range c.Model.Graph.Nodes() {
		nodeByName[n.Name()] = n
	}
	var names []string
	var sizes []int
	for _, name := range qp.StepNames() {
		n := nodeByName[name]
		if n == nil || !corruptible(n) {
			continue
		}
		names = append(names, name)
		sizes = append(sizes, quantParamBytes)
	}
	fs, err := surfaceSpace("quantparam", names, sizes)
	if err != nil {
		return nil, err
	}
	scen := c.scenario().(Int8Scenario) // checked by QuantParamSurface.Validate
	newWorker := func() (persistentWorker, error) {
		return &quantParamWorker{
			qp:      qp,
			st:      qp.NewState(),
			ckpts:   ckpts,
			scen:    scen,
			outNode: outNode,
		}, nil
	}
	return &persistentExec{space: fs, bits: 8, refs: refs, newWorker: newWorker}, nil
}

// serializeQParams lays out a step's quantization parameters as stored
// bytes: little-endian float32 scale, then the zero point clamped to
// its int8 storage (symmetric calibration keeps it there anyway).
func serializeQParams(p tensor.QParams) [quantParamBytes]byte {
	var b [quantParamBytes]byte
	binary.LittleEndian.PutUint32(b[:4], math.Float32bits(p.Scale))
	z := p.Zero
	if z > 127 {
		z = 127
	} else if z < -128 {
		z = -128
	}
	b[4] = byte(int8(z))
	return b
}

// deserializeQParams is the inverse of serializeQParams.
func deserializeQParams(b [quantParamBytes]byte) tensor.QParams {
	return tensor.QParams{
		Scale: math.Float32frombits(binary.LittleEndian.Uint32(b[:4])),
		Zero:  int32(int8(b[4])),
	}
}

// quantParamWorker executes sequences on the quantparam surface: struck
// steps' parameters are serialized, bit-corrupted, and patched back
// (rebuilding the producing and consuming kernels); a rebuild the
// corrupted parameters make impossible ends the sequence as a DUE.
type quantParamWorker struct {
	qp      *graph.QPlan
	st      *graph.QPlanState
	ckpts   []*graph.QCheckpoint
	scen    Int8Scenario
	outNode *graph.Node

	stagedNodes []string
	staged      map[string][quantParamBytes]byte
}

func (w *quantParamWorker) inject(sites []Site) (int, error) {
	w.stagedNodes = w.stagedNodes[:0]
	if w.staged == nil {
		w.staged = map[string][quantParamBytes]byte{}
	}
	for _, s := range sites {
		b, ok := w.staged[s.Node]
		if !ok {
			p, found := w.qp.StepParams(s.Node)
			if !found {
				return 0, fmt.Errorf("inject: no quantized step %q", s.Node)
			}
			b = serializeQParams(p)
			w.stagedNodes = append(w.stagedNodes, s.Node)
		}
		if s.Elem < 0 || s.Elem >= quantParamBytes {
			return 0, siteBoundsError(s, quantParamBytes)
		}
		q, err := w.scen.CorruptInt8(int8(b[s.Elem]), s)
		if err != nil {
			return 0, fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
		}
		b[s.Elem] = byte(q)
		w.staged[s.Node] = b
	}
	minDepth := w.qp.Steps()
	for _, name := range w.stagedNodes {
		if err := w.qp.PatchOutParams(w.st, name, deserializeQParams(w.staged[name])); err != nil {
			// The corrupted parameters make a kernel unbuildable: drop
			// any partial overrides and end the sequence as a DUE.
			w.st.ClearOverrides()
			return 0, fmt.Errorf("%w: %v", errDUE, err)
		}
		if d := w.qp.StepOf(name); d >= 0 && d < minDepth {
			minDepth = d
		}
		delete(w.staged, name)
	}
	return minDepth, nil
}

func (w *quantParamWorker) runInf(input, depth int, det Detector) ([]float32, error) {
	outs, err := w.qp.RunFrom(w.st, w.ckpts[input], depth, nil)
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	if det != nil {
		det.Observe(w.outNode, outs[0])
	}
	return outs[0].Data(), nil
}

func (w *quantParamWorker) repair() { w.st.ClearOverrides() }

func (w *quantParamWorker) clear() { w.repair() }

// plannedSeq is one allocated persistent sequence: its global position,
// its private sampling seed, and (under stratified sampling) its
// stratum and the stratum's site constraint.
type plannedSeq struct {
	seq     int64
	seed    int64
	stratum int // -1 under uniform sampling
	stratumBand
}

// bitsEqual reports byte-exact equality of two float32 slices (bit
// patterns compare, so NaN == NaN — this is a memory check, not an
// IEEE one).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// runSequence executes one persistent sequence on a worker: inject,
// then up to sequenceLen inferences over the cycling inputs, each
// judged against its clean reference and shown to det; detection ends
// the sequence, optionally scrubbing the fault and byte-checking the
// post-repair replay. The worker's persistent state is always cleared
// before returning.
func (c *Campaign) runSequence(w persistentWorker, det Detector, refs []*tensor.Tensor, ps plannedSeq, sites []Site) (SequenceResult, error) {
	r := SequenceResult{Sequence: ps.seq, Seq: ps.seq, Stratum: ps.stratum}
	if len(sites) > 0 {
		r.Node = sites[0].Node
	}
	depth, err := w.inject(sites)
	if err != nil {
		w.clear()
		if errors.Is(err, errDUE) {
			r.DUE = true
			return r, nil
		}
		return r, err
	}
	seqLen := c.sequenceLen()
	for j := 0; j < seqLen; j++ {
		ii := j % len(refs)
		if det != nil {
			det.Reset()
		}
		data, err := w.runInf(ii, depth, det)
		if err != nil {
			w.clear()
			return r, err
		}
		r.Inferences++
		if c.isSDC(c.judgeData(refs[ii], data)) {
			if r.FirstSDC == 0 {
				r.FirstSDC = j + 1
			}
			r.SDCs++
		}
		if det != nil && det.Detected() {
			r.Detected = true
			r.DetectLatency = j + 1
			if c.Repair {
				w.repair()
				post, err := w.runInf(ii, depth, nil)
				if err != nil {
					w.clear()
					return r, err
				}
				r.Repaired = true
				r.PostRepairOK = bitsEqual(post, refs[ii].Data())
			}
			break
		}
	}
	w.clear()
	return r, nil
}

// runPersistentShard executes the planned sequences across workers,
// landing results in their slots. Sequences sample from their private
// streams and results fold by slot, so the shard is deterministic at
// every worker count. A non-cloneable Detector forces sequential
// execution (mirroring RunWithDetector); OnSequence streams completed
// sequences in scheduling order under a shard-wide mutex.
func (c *Campaign) runPersistentShard(ctx context.Context, exec *persistentExec, plan []plannedSeq, results []SequenceResult) error {
	workers := parallel.Resolve(c.Workers)
	if c.Detector != nil {
		if _, ok := c.Detector.(CloneableDetector); !ok {
			workers = 1
		}
	}
	errs := make([]error, len(plan))
	var cbMu sync.Mutex
	scen, format := c.scenario(), c.format()
	parallel.Shard(workers, len(plan), func(lo, hi int) {
		w, err := exec.newWorker()
		if err != nil {
			errs[lo] = err
			return
		}
		det := c.Detector
		if det != nil && workers > 1 {
			det = det.(CloneableDetector).CloneDetector()
		}
		rng := rand.New(&splitmixSource{})
		var buf []Site
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			ps := &plan[i]
			var b *stratumBand
			if ps.stratum >= 0 {
				b = &ps.stratumBand
			}
			rng.Seed(ps.seed)
			buf = drawSites(buf, scen, exec.space, format, rng, b)
			r, err := c.runSequence(w, det, exec.refs, *ps, buf)
			if err != nil {
				errs[i] = err
				continue
			}
			results[i] = r
			if c.OnSequence != nil {
				cbMu.Lock()
				c.OnSequence(r)
				cbMu.Unlock()
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

// RunPersistent executes the persistent campaign over the given inputs:
// Trials sequences, each injecting one persistent fault and running
// SequenceLen inferences over the cycling input set. Under an Adaptive
// sampling mode it dispatches to the stratified persistent engine
// (strata over surface-node × bit-band with per-stratum Wilson
// stopping); otherwise it is RunPersistentSlice over the whole grid.
// Cancellation follows the Run contract: ctx.Err() and a zero outcome,
// never a partial fold.
func (c *Campaign) RunPersistent(ctx context.Context, inputs []graph.Feeds) (PersistentOutcome, error) {
	if c.Adaptive != SamplingUniform {
		return c.runPersistentStratified(ctx, inputs)
	}
	return c.RunPersistentSlice(ctx, inputs, 0, c.PersistentGridSize())
}

// RunPersistentSlice executes the sub-range [start, end) of the
// persistent campaign's sequence grid. Sequences keep their absolute
// identities — each samples from the same sequenceSeed(Seed, s) stream
// an uninterrupted RunPersistent would give it — so consecutive slices
// fold, slice by slice, into exactly one uninterrupted run's
// PersistentOutcome: counters add and the latency slices concatenate in
// order. This is the durable-resume primitive behind rangerd's
// persistent jobs.
func (c *Campaign) RunPersistentSlice(ctx context.Context, inputs []graph.Feeds, start, end int64) (PersistentOutcome, error) {
	if c.Adaptive != SamplingUniform {
		return PersistentOutcome{}, fmt.Errorf("inject: stratified persistent campaigns run through RunPersistent, not slices")
	}
	if err := c.validatePersistent(inputs); err != nil {
		return PersistentOutcome{}, err
	}
	total := c.PersistentGridSize()
	if start < 0 || end > total || start > end {
		return PersistentOutcome{}, fmt.Errorf("inject: slice [%d,%d) outside grid [0,%d)", start, end, total)
	}
	exec, err := c.newPersistentExec(inputs)
	if err != nil {
		return PersistentOutcome{}, err
	}
	n := int(end - start)
	plan := make([]plannedSeq, n)
	for i := range plan {
		s := start + int64(i)
		plan[i] = plannedSeq{seq: s, seed: sequenceSeed(c.Seed, s), stratum: -1}
	}
	results := make([]SequenceResult, n)
	if err := c.runPersistentShard(ctx, exec, plan, results); err != nil {
		return PersistentOutcome{}, err
	}
	if err := ctx.Err(); err != nil {
		return PersistentOutcome{}, err
	}
	var out PersistentOutcome
	for i := range results {
		results[i].Apply(&out)
	}
	return out, nil
}

// runPersistentStratified is the adaptive persistent engine: strata
// over (surface node × bit band), trials allocated in deterministic
// quantum-robin rounds over the still-open strata (ordered by Wilson
// upper bound under AdaptiveWorstCase), each stratum stopping once its
// Wilson CI half-width over the per-sequence SDC criterion falls below
// CITarget, with Trials as the total sequence budget.
func (c *Campaign) runPersistentStratified(ctx context.Context, inputs []graph.Feeds) (PersistentOutcome, error) {
	switch c.Adaptive {
	case AdaptiveStratified, AdaptiveWorstCase:
	default:
		return PersistentOutcome{}, fmt.Errorf("inject: unknown sampling mode %d", c.Adaptive)
	}
	if err := c.validatePersistent(inputs); err != nil {
		return PersistentOutcome{}, err
	}
	target, bands, err := c.stratifiedConfig()
	if err != nil {
		return PersistentOutcome{}, err
	}
	exec, err := c.newPersistentExec(inputs)
	if err != nil {
		return PersistentOutcome{}, err
	}
	st := newStrata(buildStrata(exec.space, exec.bits, bands), target)
	budget := c.PersistentGridSize()
	var out PersistentOutcome
	var seq int64
	for seq < budget {
		open := st.open(c.Adaptive)
		if len(open) == 0 {
			break
		}
		n := int(min64(budget-seq, DefaultRoundTrials))
		plan := make([]plannedSeq, 0, n)
		st.allocate(open, n, func(si, local int) {
			plan = append(plan, plannedSeq{
				seq:         seq + int64(len(plan)),
				seed:        adaptiveSeed(c.Seed, si, local),
				stratum:     si,
				stratumBand: st.defs[si].stratumBand,
			})
		})
		results := make([]SequenceResult, len(plan))
		if err := c.runPersistentShard(ctx, exec, plan, results); err != nil {
			return PersistentOutcome{}, err
		}
		for i := range results {
			results[i].Apply(&out)
			st.acc[plan[i].stratum].Add(results[i].sdc())
		}
		seq += int64(len(plan))
		out.Rounds++
	}
	if err := ctx.Err(); err != nil {
		return PersistentOutcome{}, err
	}
	out.Strata, out.Converged = st.results(c.surface().Name())
	return out, nil
}
