package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ranger/internal/tensor"
)

// This file implements checkpointed suffix replay for compiled plans.
// A fault-injection trial that corrupts its earliest value at step k
// leaves every step before k byte-identical to the clean pass, so a
// campaign can run the clean pass once per input, capture the values
// still live at later step boundaries, and replay only steps >= k per
// trial. Checkpoint captures that live set (derived from the plan's
// liveness analysis — one clone per live value, not one per boundary)
// and RunFrom restores the boundary's live set into a worker's state
// before executing the suffix. Outcomes are byte-identical to a full
// replay: the restored values are the clean pass's own bits, and every
// kernel is deterministic in its inputs.
//
// RunCone narrows the suffix to the fault's forward cone. Past step k,
// a step whose inputs all equal the clean pass's bits would recompute
// the clean value, so it binds the checkpoint's value instead of
// running; and an executed step whose output bits equal the clean value
// ends the corruption there. Once no differing value is still read,
// replay stops and the trial is masked: its output is bit-identical to
// the reference. On the trained zoo's plain models (200 single-bit-flip
// trials per model over every node, one validation input) 38–54% of
// fp32 trials are masked this way (comma: 16%) and 42–100% of int8
// trials, and cone replay executes 32–56% (fp32) and 42–73% (int8) of
// the steps a suffix replay would.

var errCheckpointPlan = errors.New("graph: checkpoint belongs to a different plan")

// Checkpoint is one clean execution of a Plan over fixed feeds, with
// every value that later steps may read retained (slot-backed values
// cloned out of the recycled buffers; feeds, weights, and per-run
// allocations aliased). It is immutable after capture and safe to share
// across worker states replaying suffixes concurrently.
type Checkpoint struct {
	plan   *Plan
	feeds  Feeds
	layout *planLayout
	vals   []*tensor.Tensor // per node id; nil = not live past its step
	outs   []*tensor.Tensor // clean fetch outputs, in fetch order
	elems  int              // cloned float32 elements (memory accounting)
}

// Checkpoint runs the plan cleanly on st and captures the suffix-replay
// checkpoint for these feeds. The feeds must stay alive and unmodified
// for as long as the checkpoint is used; the state can be reused (for
// example to capture the next input's checkpoint) without invalidating
// captures already taken.
func (p *Plan) Checkpoint(st *PlanState, feeds Feeds) (*Checkpoint, error) {
	if st == nil || st.plan != p {
		return nil, errors.New("graph: plan state belongs to a different plan")
	}
	layout, err := p.layoutFor(feeds)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		plan:   p,
		feeds:  feeds,
		layout: layout,
		vals:   make([]*tensor.Tensor, p.g.Len()),
	}
	if _, err := p.runFrom(st, layout, feeds, 0, nil, func(si int, out *tensor.Tensor) {
		s := &p.steps[si]
		if p.lastUse[s.node.id] <= si {
			return // nothing after this step reads the value
		}
		if s.planned != nil && s.slot >= 0 && layout.shapes[si] != nil {
			// Slot-backed: the buffer is recycled by later steps and
			// runs, so the live value must be copied out.
			out = out.Clone()
			ck.elems += out.Size()
		}
		ck.vals[s.node.id] = out
	}); err != nil {
		return nil, err
	}
	ck.outs = make([]*tensor.Tensor, len(p.fetchID))
	for i, id := range p.fetchID {
		ck.outs[i] = ck.vals[id]
	}
	return ck, nil
}

// Output returns the clean fetch output i. It is checkpoint-owned (a
// clone for slot-backed fetches), so unlike Plan.Run results it stays
// valid across later runs on any state — campaigns use it directly as
// the SDC reference.
func (ck *Checkpoint) Output(i int) *tensor.Tensor { return ck.outs[i] }

// Feeds returns the feeds the checkpoint was captured against.
func (ck *Checkpoint) Feeds() Feeds { return ck.feeds }

// Elements returns how many float32 elements the checkpoint cloned —
// the suffix-replay memory cost per input, roughly one copy of every
// live intermediate activation.
func (ck *Checkpoint) Elements() int { return ck.elems }

// RunFrom restores the checkpoint's live set at boundary startStep into
// st and executes only steps [startStep, Steps()), calling hook for
// observation points exactly like RunHook. startStep=0 is equivalent to
// RunHook over the checkpoint's feeds; startStep=Steps() executes
// nothing and returns the clean outputs. The returned slice and any
// recomputed tensors are owned by the state and valid until its next
// run; outputs restored from the checkpoint are checkpoint-owned.
//
// The state's buffers are not reset between calls: a suffix replay that
// corrupted values in place leaves stale bytes in the slot buffers, but
// every step at or after the next call's boundary fully overwrites its
// output, and everything before the boundary is read from the restored
// checkpoint values, so stale bytes are never observed.
func (p *Plan) RunFrom(st *PlanState, ck *Checkpoint, startStep int, hook Hook) ([]*tensor.Tensor, error) {
	if err := p.checkReplay(st, ck); err != nil {
		return nil, err
	}
	if startStep < 0 || startStep > len(p.steps) {
		return nil, fmt.Errorf("graph: RunFrom step %d of %d", startStep, len(p.steps))
	}
	if err := p.restore(st, ck, startStep); err != nil {
		return nil, err
	}
	return p.runFrom(st, ck.layout, ck.feeds, startStep, hook, nil)
}

// RunCone replays only the forward cone of a fault: struck marks the
// plan steps whose outputs the hook corrupts, and replay starts at the
// first of them with the checkpoint's live set restored, like RunFrom.
// A later step executes only if it is struck, reads a value that
// differs from the checkpoint's (an input or a fused bias vector), or
// the state overrides its Variable; every other step's value is the
// checkpoint's own. After each executed step its output bits are
// compared with the clean value: equal bits make the value clean again,
// so a fault that an operator absorbs (a ReLU zeroing a flipped negative,
// a MaxPool dropping a corrupted non-maximum) stops propagating there.
// Once past the last struck step with no differing value left alive,
// replay stops.
//
// The outputs are bit-identical to RunFrom from the first struck step,
// provided hook alters only struck steps' outputs; hook is called only
// for executed observation points. masked reports that every fetch is
// bit-identical to the checkpoint's clean output (clean fetches are
// returned as Checkpoint.Output itself). Values a state override
// shadows count as differing. The returned slice is owned by the state
// and reused by the next run.
func (p *Plan) RunCone(st *PlanState, ck *Checkpoint, struck Bits, hook Hook) (outs []*tensor.Tensor, masked bool, err error) {
	if err := p.checkReplay(st, ck); err != nil {
		return nil, false, err
	}
	n := len(p.steps)
	start, last := struck.span(n)
	if err := p.restore(st, ck, start); err != nil {
		return nil, false, err
	}
	c := &st.cone
	c.reset(p.g.Len())
	for id := range st.vars {
		c.mark(id, true)
	}
	st.useLayout(ck.layout)
	for si := start; si < n; si++ {
		s := &p.steps[si]
		id := s.node.id
		if struck.has(si) || st.vars[id] != nil || c.readsDirty(s.inIDs) || c.auxDirty(s.epilogue) {
			out, err := p.runStep(st, ck.layout, ck.feeds, si, hook)
			if err != nil {
				return nil, false, err
			}
			ref := ck.vals[id]
			c.mark(id, ref != nil && !sameBits(out.Data(), ref.Data()))
		} else {
			st.cache[id] = ck.vals[id]
		}
		if si >= last && !c.alive(p.lastUse, si) {
			break
		}
	}
	masked = true
	for i, id := range p.fetchID {
		st.fetch[i] = ck.outs[i]
		if c.dirty.has(id) {
			st.fetch[i], masked = st.cache[id], false
		}
	}
	return st.fetch, masked, nil
}

// checkReplay rejects a state or checkpoint of another plan.
func (p *Plan) checkReplay(st *PlanState, ck *Checkpoint) error {
	if st == nil || st.plan != p {
		return errors.New("graph: plan state belongs to a different plan")
	}
	if ck == nil || ck.plan != p {
		return errCheckpointPlan
	}
	return nil
}

// restore binds the checkpoint's live set at boundary start into st's
// cache.
func (p *Plan) restore(st *PlanState, ck *Checkpoint, start int) error {
	for si := 0; si < start; si++ {
		s := &p.steps[si]
		id := s.node.id
		if p.lastUse[id] < start {
			continue // dead at the boundary: no later step reads it
		}
		// Weight-memory overrides shadow the checkpoint's (golden) value:
		// Variables are aliased into the checkpoint, so a state carrying a
		// corrupted weight must not read the clean copy back.
		if t := st.vars[id]; t != nil {
			st.cache[id] = t
			continue
		}
		v := ck.vals[id]
		if v == nil {
			return fmt.Errorf("graph: checkpoint has no value for %q", s.node.name)
		}
		st.cache[id] = v
	}
	return nil
}

// QCheckpoint is Checkpoint for a quantized plan: one clean int8
// execution with every live quantized value cloned out of the recycled
// slot buffers. Immutable after capture; safe to share across workers.
type QCheckpoint struct {
	plan   *QPlan
	feeds  Feeds
	layout *planLayout
	vals   []*tensor.QTensor
	outs   []*tensor.Tensor // dequantized clean fetch outputs
	elems  int
}

// Checkpoint runs the quantized plan cleanly on st and captures the
// suffix-replay checkpoint for these feeds (every quantized step is
// slot-backed, so every live value is cloned).
func (q *QPlan) Checkpoint(st *QPlanState, feeds Feeds) (*QCheckpoint, error) {
	if st == nil || st.plan != q {
		return nil, errors.New("graph: quantized state belongs to a different plan")
	}
	layout, err := q.src.layoutFor(feeds)
	if err != nil {
		return nil, err
	}
	ck := &QCheckpoint{
		plan:   q,
		feeds:  feeds,
		layout: layout,
		vals:   make([]*tensor.QTensor, q.src.g.Len()),
	}
	if err := q.runFrom(st, layout, feeds, 0, nil, func(si int, out *tensor.QTensor) {
		s := &q.steps[si]
		if q.lastUse[s.node.id] <= si {
			return
		}
		c := out.Clone()
		ck.elems += c.Size()
		ck.vals[s.node.id] = c
	}); err != nil {
		return nil, err
	}
	ck.outs = make([]*tensor.Tensor, len(q.fetchID))
	for i, id := range q.fetchID {
		ck.outs[i] = st.cache[id].Dequantize()
	}
	return ck, nil
}

// Output returns the clean dequantized fetch output i; checkpoint-owned
// and safe to retain — campaigns use it directly as the SDC reference.
func (ck *QCheckpoint) Output(i int) *tensor.Tensor { return ck.outs[i] }

// Feeds returns the feeds the checkpoint was captured against.
func (ck *QCheckpoint) Feeds() Feeds { return ck.feeds }

// Elements returns how many int8 elements the checkpoint cloned.
func (ck *QCheckpoint) Elements() int { return ck.elems }

// RunFrom restores the checkpoint's live set at boundary startStep into
// st, executes quantized steps [startStep, Steps()), and returns the
// dequantized fetch outputs. Unlike QPlan.Run the returned tensors are
// state-owned and reused by the next RunFrom on the same state — clone
// anything that must survive. startStep semantics match Plan.RunFrom.
func (q *QPlan) RunFrom(st *QPlanState, ck *QCheckpoint, startStep int, hook QHook) ([]*tensor.Tensor, error) {
	if err := q.checkReplay(st, ck); err != nil {
		return nil, err
	}
	if startStep < 0 || startStep > len(q.steps) {
		return nil, fmt.Errorf("graph: RunFrom step %d of %d", startStep, len(q.steps))
	}
	if err := q.restore(st, ck, startStep); err != nil {
		return nil, err
	}
	if err := q.runFrom(st, ck.layout, ck.feeds, startStep, hook, nil); err != nil {
		return nil, err
	}
	for i, id := range q.fetchID {
		if err := st.dequantizeFetch(i, st.cache[id]); err != nil {
			return nil, err
		}
	}
	return st.fetch, nil
}

// RunCone is Plan.RunCone for a quantized plan: a step's output is
// clean again when its int8 data and quantization parameters equal the
// checkpoint's, and a step whose kernel or output parameters the state
// overrides always executes. Clean fetches are returned as
// QCheckpoint.Output; differing ones are dequantized into state-owned
// buffers, as RunFrom returns them.
func (q *QPlan) RunCone(st *QPlanState, ck *QCheckpoint, struck Bits, hook QHook) (outs []*tensor.Tensor, masked bool, err error) {
	if err := q.checkReplay(st, ck); err != nil {
		return nil, false, err
	}
	n := len(q.steps)
	start, last := struck.span(n)
	for si := n - 1; si > last && st.kernels != nil; si-- {
		if st.overrides(si) {
			last = si // an overridden step must still run
			break
		}
	}
	if err := q.restore(st, ck, start); err != nil {
		return nil, false, err
	}
	c := &st.cone
	c.reset(len(q.lastUse))
	st.useLayout(ck.layout)
	for si := start; si < n; si++ {
		id := q.steps[si].node.id
		if struck.has(si) || st.overrides(si) || c.readsDirty(q.steps[si].inIDs) {
			out, err := q.runStep(st, ck.layout, ck.feeds, si, hook)
			if err != nil {
				return nil, false, err
			}
			ref := ck.vals[id]
			c.mark(id, ref != nil && !sameQBits(out, ref))
		} else {
			st.cache[id] = ck.vals[id]
		}
		if si >= last && !c.alive(q.lastUse, si) {
			break
		}
	}
	masked = true
	for i, id := range q.fetchID {
		st.fetch[i] = ck.outs[i]
		if c.dirty.has(id) {
			masked = false
			if err := st.dequantizeFetch(i, st.cache[id]); err != nil {
				return nil, false, err
			}
		}
	}
	return st.fetch, masked, nil
}

// checkReplay rejects a state or checkpoint of another quantized plan.
func (q *QPlan) checkReplay(st *QPlanState, ck *QCheckpoint) error {
	if st == nil || st.plan != q {
		return errors.New("graph: quantized state belongs to a different plan")
	}
	if ck == nil || ck.plan != q {
		return errCheckpointPlan
	}
	return nil
}

// restore binds the checkpoint's live set at boundary start into st's
// cache.
func (q *QPlan) restore(st *QPlanState, ck *QCheckpoint, start int) error {
	for si := 0; si < start; si++ {
		s := &q.steps[si]
		id := s.node.id
		if q.lastUse[id] < start {
			continue
		}
		v := ck.vals[id]
		if v == nil {
			return fmt.Errorf("graph: checkpoint has no value for %q", s.node.name)
		}
		st.cache[id] = v
	}
	return nil
}

// dequantizeFetch dequantizes fetch i's value into the state's reused
// buffer and installs it as the fetch output.
func (st *QPlanState) dequantizeFetch(i int, qt *tensor.QTensor) error {
	d := st.deq[i]
	if d == nil || d.Size() != qt.Size() {
		d = tensor.New(qt.Shape()...)
		st.deq[i] = d
	}
	if _, err := qt.DequantizeInto(d); err != nil {
		return err
	}
	st.fetch[i] = d
	return nil
}

// overrides reports whether the state shadows step si's kernel or
// output parameters.
func (st *QPlanState) overrides(si int) bool {
	return st.kernels != nil && (st.kernels[si] != nil || st.qOver[si] != nil)
}

// Bits is a fixed-size bitset. RunCone takes the struck plan steps as
// one; cone replay also tracks its differing values in one, by node id.
type Bits []uint64

// NewBits returns a cleared bitset holding indices [0, n).
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set adds index i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (i & 63) }

// unset removes index i.
func (b Bits) unset(i int) { b[i>>6] &^= 1 << (i & 63) }

// has reports whether index i is set; indices past the end are unset.
func (b Bits) has(i int) bool { return i>>6 < len(b) && b[i>>6]&(1<<(i&63)) != 0 }

// span returns the first and last set index below n, or (n, n) when
// none is set.
func (b Bits) span(n int) (first, last int) {
	first, last = n, n
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= n {
				return first, last
			}
			if first == n {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// coneState is cone replay's record of which values differ from the
// checkpoint's. It lives in the worker state, so replays after the
// first allocate nothing.
type coneState struct {
	dirty Bits  // by node id: the cached value differs from the checkpoint's
	ids   []int // node ids marked dirty this replay (a superset of dirty)
}

// reset clears the previous replay's marks for a graph of nodes nodes.
func (c *coneState) reset(nodes int) {
	if len(c.dirty)<<6 < nodes {
		c.dirty = NewBits(nodes)
	}
	for _, id := range c.ids {
		c.dirty.unset(id)
	}
	c.ids = c.ids[:0]
}

// mark records whether node id's value differs from the checkpoint's.
func (c *coneState) mark(id int, dirty bool) {
	switch {
	case !dirty:
		c.dirty.unset(id)
	case !c.dirty.has(id):
		c.dirty.Set(id)
		c.ids = append(c.ids, id)
	}
}

// readsDirty reports whether any of the node ids (negative ones are
// constants) differs from the checkpoint's.
func (c *coneState) readsDirty(ids []int) bool {
	for _, id := range ids {
		if id >= 0 && c.dirty.has(id) {
			return true
		}
	}
	return false
}

// auxDirty reports whether a fused bias vector differs from the
// checkpoint's.
func (c *coneState) auxDirty(epilogue []stageSpec) bool {
	for _, e := range epilogue {
		if e.aux != nil && c.dirty.has(e.aux.id) {
			return true
		}
	}
	return false
}

// alive drops the differing values no step after si reads and reports
// whether any remain.
func (c *coneState) alive(lastUse []int, si int) bool {
	keep := c.ids[:0]
	for _, id := range c.ids {
		if !c.dirty.has(id) {
			continue
		}
		if lastUse[id] <= si {
			c.dirty.unset(id)
			continue
		}
		keep = append(keep, id)
	}
	c.ids = keep
	return len(keep) > 0
}

// sameBits reports bit-for-bit equality of two float32 slices.
func sameBits(a, b []float32) bool {
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

// sameQBits reports equality of two quantized values: int8 data and
// quantization parameters, the scale compared bit for bit.
func sameQBits(a, b *tensor.QTensor) bool {
	return math.Float32bits(a.P.Scale) == math.Float32bits(b.P.Scale) &&
		a.P.Zero == b.P.Zero && slices.Equal(a.Data(), b.Data())
}
