package inject

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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
// Sequences run on the campaign engine (engine.go): each input's clean
// pass is checkpointed once, and every inference replays only from the
// fault's depth — the earliest step that reads the corrupted state —
// which is byte-identical to a full run because everything before that
// step is untouched by construction. The repair path reuses the same
// checkpoints, so a scrub replays only the affected layer suffix
// instead of re-running the model.

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
	// sampling) or the global allocation sequence (stratified).
	Sequence int64
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

// storedSpace is a persistent campaign's fault space: the stored
// weights (fp32 Variables, or int8 kernel buffers) on the weight
// surface, and quantParamBytes serialized parameter bytes per
// corruptible quantized step on the quantparam surface. Weight nodes
// have their own names, so Exclude and TargetNodes must name weights;
// the model's ExcludeFI list names activation nodes and deliberately
// does not apply — the paper's last-FC exclusion is an argument about
// output activations, not stored weights. Quant params parameterize step
// outputs, so there the activation predicate carries over whole.
func (b *backend) storedSpace() (*FaultSpace, error) {
	c := b.c
	keep := nameFilter(c.Exclude, c.TargetNodes)
	var names []string
	var sizes []int
	switch c.surface().(type) {
	case WeightSurface:
		if b.qp == nil {
			names, sizes = b.plan.Weights()
		} else {
			var err error
			if names, sizes, err = b.qp.StoredWeights(); err != nil {
				return nil, err
			}
		}
	case QuantParamSurface:
		corruptible := corruptibleFilter(c.Model, c.Exclude, c.TargetNodes)
		for _, name := range b.qp.StepNames() {
			if n, ok := c.Model.Graph.Node(name); ok && corruptible(n) {
				names = append(names, name)
				sizes = append(sizes, quantParamBytes)
			}
		}
	}
	fs := &FaultSpace{}
	for i, name := range names {
		if keep(name) {
			fs.nodes = append(fs.nodes, name)
			fs.sizes = append(fs.sizes, sizes[i])
			fs.total += int64(sizes[i])
		}
	}
	if fs.total == 0 {
		return nil, fmt.Errorf("inject: empty %s fault space", c.surface().Name())
	}
	return fs, nil
}

// fp32WeightWorker is the fp32 weight-surface worker: faults flip bits of
// the campaign's fixed-point encoding of stored Variable tensors (the
// same simulated-datapath encoding activation faults use). Struck
// weights are cloned from golden, corrupted in the clone, and installed
// as the state's Variable overrides (honored by replay and checkpoint
// restore alike), so the shared golden weights stay untouched and scrub
// is an override drop. Inferences replay with RunFrom from the fault's
// depth. Clones recycle across sequences, so steady-state planting
// allocates nothing.
type fp32WeightWorker struct {
	b     *backend
	st    *graph.PlanState
	depth int
	over  map[string]*tensor.Tensor // recycled override clones, per weight
	fresh map[string]bool           // overrides refreshed this sequence
	det   Detector                  // current inference's detector (hook target)
	hook  graph.Hook
}

func (w *fp32WeightWorker) plant(sites []Site) (int, error) {
	plan, c := w.b.plan, w.b.c
	clear(w.fresh)
	w.depth = plan.Steps()
	for _, s := range sites {
		t := w.over[s.Node]
		if !w.fresh[s.Node] {
			golden := plan.VarValue(s.Node)
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
			if err := plan.OverrideVar(w.st, s.Node, t); err != nil {
				return 0, err
			}
		}
		if s.Elem < 0 || s.Elem >= t.Size() {
			return 0, siteBoundsError(s, t.Size())
		}
		v, err := corruptFloat(c.scenario(), c.format(), t.Data()[s.Elem], s)
		if err != nil {
			return 0, fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
		}
		t.Data()[s.Elem] = v
		w.depth = min(w.depth, max(plan.VarDepth(s.Node), 0))
	}
	return w.depth, nil
}

func (w *fp32WeightWorker) infer(input int, det Detector) ([]float32, error) {
	var hook graph.Hook
	if det != nil {
		w.det = det
		hook = w.hook
	}
	outs, err := w.b.plan.RunFrom(w.st, w.b.ckpts[input], w.depth, hook)
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	return outs[0].Data(), nil
}

func (w *fp32WeightWorker) scrub() { w.st.ClearVarOverrides() }

// storedI8 is the half the two int8 stored-state workers share: replay,
// observe and scrub. Their faults live in per-state overrides — private
// kernels or patched quantization parameters — so an inference is a cone
// replay with nothing struck: QPlan.RunCone starts at the earliest step
// the state overrides and executes every overridden step. Detectors see
// only the dequantized fetch, since int8 internals are not fp32 tensors.
// Scrub drops the overrides, so the next plant rebuilds from golden.
// With nothing overridden RunCone would execute no step, so an
// inference after a scrub (a repair's post-repair check) replays from
// the planted fault's depth with RunFrom, as the fp32 weight worker
// does, and the check compares a recomputed output with the reference.
type storedI8 struct {
	b        *backend
	st       *graph.QPlanState
	depth    int  // the planted faults' depth
	scrubbed bool // scrubbed since the last plant
}

func (b *backend) newStoredI8() storedI8 { return storedI8{b: b, st: b.qp.NewState()} }

func (w *storedI8) infer(input int, det Detector) ([]float32, error) {
	var outs []*tensor.Tensor
	var err error
	if w.scrubbed {
		outs, err = w.b.qp.RunFrom(w.st, w.b.qckpts[input], w.depth, nil)
	} else {
		outs, _, err = w.b.qp.RunCone(w.st, w.b.qckpts[input], nil, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("inject: faulty run: %w", err)
	}
	if det != nil {
		det.Observe(w.b.outNode, outs[0])
	}
	return outs[0].Data(), nil
}

func (w *storedI8) scrub() {
	w.st.ClearOverrides()
	w.scrubbed = true
}

// int8WeightWorker is the int8 weight-surface worker: faults flip bits of
// the stored quantized weight bytes of Dense/Conv kernels, materialized
// from golden as per-state private kernels and corrupted in place.
type int8WeightWorker struct {
	storedI8
	bufs map[string][]int8 // this sequence's materialized weight buffers
}

func (w *int8WeightWorker) plant(sites []Site) (int, error) {
	qp, scen := w.b.qp, w.b.c.scenario()
	clear(w.bufs)
	depth := qp.Steps()
	for _, s := range sites {
		buf, ok := w.bufs[s.Node]
		if !ok {
			var err error
			if buf, err = qp.MaterializeWeights(w.st, s.Node); err != nil {
				return 0, err
			}
			w.bufs[s.Node] = buf
		}
		if s.Elem < 0 || s.Elem >= len(buf) {
			return 0, siteBoundsError(s, len(buf))
		}
		q, err := corruptInt8(scen, buf[s.Elem], s)
		if err != nil {
			return 0, fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
		}
		buf[s.Elem] = q
		if d := qp.StepOf(s.Node); d >= 0 {
			depth = min(depth, d)
		}
	}
	w.depth, w.scrubbed = depth, false
	return depth, nil
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

// quantParamWorker is the quantparam-surface worker: struck steps'
// parameters are serialized, bit-corrupted, and patched back, rebuilding
// the producing and consuming kernels. A rebuild the corrupted
// parameters make impossible ends the sequence as a DUE.
type quantParamWorker struct {
	storedI8
	staged []stagedParams
}

// stagedParams is one struck step's serialized parameters while plant
// corrupts them.
type stagedParams struct {
	node  string
	bytes [quantParamBytes]byte
}

func (w *quantParamWorker) plant(sites []Site) (int, error) {
	qp, scen := w.b.qp, w.b.c.scenario()
	w.staged = w.staged[:0]
	for _, s := range sites {
		k := slices.IndexFunc(w.staged, func(p stagedParams) bool { return p.node == s.Node })
		if k < 0 {
			p, found := qp.StepParams(s.Node)
			if !found {
				return 0, fmt.Errorf("inject: no quantized step %q", s.Node)
			}
			k = len(w.staged)
			w.staged = append(w.staged, stagedParams{s.Node, serializeQParams(p)})
		}
		if s.Elem < 0 || s.Elem >= quantParamBytes {
			return 0, siteBoundsError(s, quantParamBytes)
		}
		b := &w.staged[k].bytes
		q, err := corruptInt8(scen, int8(b[s.Elem]), s)
		if err != nil {
			return 0, fmt.Errorf("inject: corrupt %s[%d]: %w", s.Node, s.Elem, err)
		}
		b[s.Elem] = byte(q)
	}
	depth := qp.Steps()
	for _, p := range w.staged {
		if err := qp.PatchOutParams(w.st, p.node, deserializeQParams(p.bytes)); err != nil {
			return 0, fmt.Errorf("%w: %v", errDUE, err)
		}
		if d := qp.StepOf(p.node); d >= 0 {
			depth = min(depth, d)
		}
	}
	w.depth, w.scrubbed = depth, false
	return depth, nil
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

// runSequence executes one persistent sequence on sw: plant the fault,
// then up to sequenceLen inferences over the cycling inputs, each judged
// against its clean reference and shown to the worker's detector;
// detection ends the sequence, optionally scrubbing the fault and
// byte-checking the post-repair replay. The worker is always scrubbed
// before returning.
func (b *backend) runSequence(sw *slotWorker, s slot) (SequenceResult, error) {
	c := b.c
	r := SequenceResult{Sequence: s.seq, Stratum: s.stratum}
	sites := sw.draw(s.seed, s.band)
	if len(sites) > 0 {
		r.Node = sites[0].Node
	}
	defer sw.scrub()
	if _, err := sw.plant(sites); err != nil {
		if errors.Is(err, errDUE) {
			r.DUE = true
			return r, nil
		}
		return r, err
	}
	det := sw.det
	for j := 0; j < c.sequenceLen(); j++ {
		ii := j % len(b.refs)
		if det != nil {
			det.Reset()
		}
		data, err := sw.infer(ii, det)
		if err != nil {
			return r, err
		}
		r.Inferences++
		if c.isSDC(c.judgeData(b.refs[ii], data)) {
			if r.FirstSDC == 0 {
				r.FirstSDC = j + 1
			}
			r.SDCs++
		}
		if det != nil && det.Detected() {
			r.Detected = true
			r.DetectLatency = j + 1
			if c.Repair {
				sw.scrub()
				post, err := sw.infer(ii, nil)
				if err != nil {
					return r, err
				}
				r.Repaired = true
				r.PostRepairOK = bitsEqual(post, b.refs[ii].Data())
			}
			break
		}
	}
	return r, nil
}

// runSequences runs the planned sequences on the shard loop in slot
// order, landing results in their slots; OnSequence streams them as
// they complete.
func (b *backend) runSequences(ctx context.Context, plan []slot, results []SequenceResult) error {
	var emit func(slot int)
	if b.c.OnSequence != nil {
		emit = func(slot int) { b.c.OnSequence(results[slot]) }
	}
	return b.runShard(ctx, len(plan), nil, func(sw *slotWorker, slot int) (err error) {
		results[slot], err = b.runSequence(sw, plan[slot])
		return err
	}, emit)
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
	return c.RunPersistentSlice(ctx, inputs, 0, c.GridSize(inputs))
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
	if err := c.validateAs(sequenceMode, inputs); err != nil {
		return PersistentOutcome{}, err
	}
	if c.Adaptive != SamplingUniform {
		return PersistentOutcome{}, fmt.Errorf("inject: stratified persistent campaigns run through RunPersistent, not slices")
	}
	if err := c.checkSlice(inputs, start, end); err != nil {
		return PersistentOutcome{}, err
	}
	b, err := c.newBackend(inputs)
	if err != nil {
		return PersistentOutcome{}, err
	}
	n := int(end - start)
	plan := make([]slot, n)
	for i := range plan {
		s := start + int64(i)
		plan[i] = slot{seq: s, seed: sequenceSeed(c.Seed, s), stratum: -1}
	}
	results := make([]SequenceResult, n)
	if err := b.runSequences(ctx, plan, results); err != nil {
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
	if err := c.validateAs(sequenceMode, inputs); err != nil {
		return PersistentOutcome{}, err
	}
	b, err := c.newBackend(inputs)
	if err != nil {
		return PersistentOutcome{}, err
	}
	target, bands := c.stratifiedConfig()
	st := newStrata(buildStrata(b.space, c.bits(), bands), target)
	budget := c.GridSize(inputs)
	var out PersistentOutcome
	var seq int64
	for {
		plan := st.round(c.Adaptive, c.Seed, seq, int(min(budget-seq, DefaultRoundTrials)))
		if len(plan) == 0 {
			break
		}
		results := make([]SequenceResult, len(plan))
		if err := b.runSequences(ctx, plan, results); err != nil {
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
