package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

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
// RunCone narrows the suffix to the fault's forward cone, pixel window
// by pixel window. Past step k, a step whose inputs all equal the clean
// pass's bits would recompute the clean value, so it binds the
// checkpoint's value instead of running. A flipped element differs in
// one pixel, and each later step spreads it only as far as its
// receptive field (window.go), so an executed step starts from the
// checkpoint's value and recomputes only the output pixels its
// differing inputs reach; the pixels that still differ after it bound
// the next window, and a window that shrinks to nothing ends the
// corruption there. Once no differing value is still read, replay
// stops and the trial is masked: its output is bit-identical to the
// reference. On the trained zoo's plain models (200 single-bit-flip
// trials per model over every node, one validation input, seed 1)
// 14–67% of fp32 trials are masked this way and 35–100% of int8 trials;
// cone replay executes 26–56% (fp32) and 37–75% (int8) of the steps a
// suffix replay would, and computes 0.7–6.4% (fp32) and 1.1–14.1%
// (int8) of their output elements.

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

// RunCone replays only the forward cone of a fault, pixel window by
// pixel window. strikes names the step output elements the hook
// corrupts; replay starts at the earliest struck step (or the earliest
// reader of a Variable the state overrides) with the checkpoint's live
// set restored, like RunFrom. Each value carries the window of pixels
// where it may differ from the checkpoint's (see Window); overridden
// Variables differ everywhere. A step whose inputs are all clean and
// that is not struck binds the checkpoint's value instead of running. A
// struck step with clean inputs is not computed either: its slot is
// filled from the checkpoint and the hook corrupts it, so it differs
// only at its struck pixels. Any other step fills its slot from the
// checkpoint and recomputes only the output window its differing inputs
// map to (WindowOp; other ops recompute the whole value). Every pixel
// outside that window reads only clean inputs, so the checkpoint's bits
// are its recomputed bits. The window is then compared with the
// checkpoint and shrunk to the pixels that actually differ, so a fault
// an operator absorbs (a ReLU zeroing a flipped negative, a MaxPool
// dropping a corrupted non-maximum) stops propagating there. Once past
// the last struck step with no differing value left alive, replay
// stops.
//
// The outputs are bit-identical to RunFrom from the first struck step,
// provided hook alters only the struck elements; hook is called only
// for executed observation points. masked reports that every fetch is
// bit-identical to the checkpoint's clean output (clean fetches are
// returned as Checkpoint.Output itself). The returned slice is owned by
// the state and reused by the next run.
func (p *Plan) RunCone(st *PlanState, ck *Checkpoint, strikes *Strikes, hook Hook) (outs []*tensor.Tensor, masked bool, err error) {
	if err := p.checkReplay(st, ck); err != nil {
		return nil, false, err
	}
	n := len(p.steps)
	start, last := strikes.span(n)
	if start == n {
		last = 0
	}
	start = p.overrideDepth(st, start)
	if err := p.restore(st, ck, start); err != nil {
		return nil, false, err
	}
	c := &st.cone
	c.reset(p.g.Len())
	for id, t := range st.vars {
		_, h, w, _ := Pixels(t)
		c.set(id, Window{0, h, 0, w})
	}
	st.useLayout(ck.layout)
	for si := start; si < n; si++ {
		s := &p.steps[si]
		id := s.node.id
		if t := st.vars[id]; t != nil {
			st.cache[id] = t
		} else {
			win := c.outWindow(s.window, s.inIDs, ck.layout.shapes[si])
			for _, e := range s.epilogue {
				if e.aux != nil && c.differs(e.aux.id) {
					win = everywhere
				}
			}
			if win.Empty() && !strikes.has(si) {
				st.cache[id] = ck.vals[id]
			} else {
				w, err := p.coneStep(st, ck, si, win, strikes, hook)
				if err != nil {
					return nil, false, err
				}
				c.set(id, w)
			}
		}
		if si >= last && !c.alive(p.lastUse, si) {
			break
		}
	}
	masked = true
	for i, id := range p.fetchID {
		st.fetch[i] = ck.outs[i]
		if c.differs(id) {
			st.fetch[i], masked = st.cache[id], false
		}
	}
	return st.fetch, masked, nil
}

// coneStep executes step si of a cone replay on the output window win
// its differing inputs reach (empty when only the hook corrupts the
// step) and returns the window where the step's output then differs
// from the checkpoint's.
func (p *Plan) coneStep(st *PlanState, ck *Checkpoint, si int, win Window, strikes *Strikes, hook Hook) (Window, error) {
	s := &p.steps[si]
	layout := ck.layout
	ref := ck.vals[s.node.id]
	var out *tensor.Tensor
	if ref == nil || s.planned == nil || s.slot < 0 || layout.shapes[si] == nil {
		// No clean value to start from, or no slot to fill it into:
		// compute the whole value.
		win = everywhere
	} else {
		_, h, w, _ := PixelDims(layout.shapes[si])
		if win.clip(h, w) == (Window{0, h, 0, w}) {
			win = everywhere
		}
	}
	if win == everywhere {
		t, err := p.evalStep(st, layout, ck.feeds, si, everywhere)
		if err != nil {
			return Window{}, err
		}
		out = t
	} else {
		ot, err := st.outTensor(si, layout)
		if err != nil {
			return Window{}, err
		}
		copy(ot.Data(), ref.Data())
		out = ot
		if !win.Empty() {
			if _, err := p.evalStep(st, layout, ck.feeds, si, win); err != nil {
				return Window{}, err
			}
		}
	}
	res := p.finishStep(st, si, out, hook)
	if ref == nil {
		return Window{}, nil // nothing after this step reads the value
	}
	n, h, w, c := Pixels(res)
	if res != out || res.Size() != ref.Size() {
		return Window{0, h, 0, w}, nil // the hook substituted a value
	}
	win = win.Union(strikes.pixels(si, n, h, w, c))
	return differing(res.Data(), ref.Data(), n, h, w, c, win, sameF32), nil
}

// overrideDepth returns the earliest step before start that reads a
// Variable the state overrides (as an input or a fused bias vector), or
// start if none does: cone replay must start there, since the
// checkpoint holds only clean values.
func (p *Plan) overrideDepth(st *PlanState, start int) int {
	if len(st.vars) == 0 {
		return start
	}
	for si := 0; si < start; si++ {
		s := &p.steps[si]
		for _, id := range s.inIDs {
			if st.vars[id] != nil {
				return si
			}
		}
		for _, e := range s.epilogue {
			if e.aux != nil && st.vars[e.aux.id] != nil {
				return si
			}
		}
	}
	return start
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

// RunCone is Plan.RunCone for a quantized plan. A step whose kernel or
// output parameters the state overrides always executes, over its whole
// value, and replay starts no later than the first of them. A value
// differs everywhere when its quantization parameters differ from the
// checkpoint's, and otherwise where its int8 data does. Clean fetches
// are returned as QCheckpoint.Output; differing ones are dequantized
// into state-owned buffers, as RunFrom returns them.
func (q *QPlan) RunCone(st *QPlanState, ck *QCheckpoint, strikes *Strikes, hook QHook) (outs []*tensor.Tensor, masked bool, err error) {
	if err := q.checkReplay(st, ck); err != nil {
		return nil, false, err
	}
	n := len(q.steps)
	start, last := strikes.span(n)
	if start == n {
		last = 0
	}
	for si := 0; si < n && st.kernels != nil; si++ {
		if st.overrides(si) {
			start, last = min(start, si), max(last, si)
		}
	}
	if err := q.restore(st, ck, start); err != nil {
		return nil, false, err
	}
	c := &st.cone
	c.reset(len(q.lastUse))
	st.useLayout(ck.layout)
	for si := start; si < n; si++ {
		s := &q.steps[si]
		win := everywhere
		if !st.overrides(si) {
			win = c.outWindow(s.window, s.inIDs, ck.layout.shapes[s.srcIdx])
		}
		if win.Empty() && !strikes.has(si) {
			st.cache[s.node.id] = ck.vals[s.node.id]
		} else {
			w, err := q.coneStep(st, ck, si, win, strikes, hook)
			if err != nil {
				return nil, false, err
			}
			c.set(s.node.id, w)
		}
		if si >= last && !c.alive(q.lastUse, si) {
			break
		}
	}
	masked = true
	for i, id := range q.fetchID {
		st.fetch[i] = ck.outs[i]
		if c.differs(id) {
			masked = false
			if err := st.dequantizeFetch(i, st.cache[id]); err != nil {
				return nil, false, err
			}
		}
	}
	return st.fetch, masked, nil
}

// coneStep is Plan.coneStep for a quantized step: every quantized step
// is slot-backed, so only a value the checkpoint did not keep is
// computed whole.
func (q *QPlan) coneStep(st *QPlanState, ck *QCheckpoint, si int, win Window, strikes *Strikes, hook QHook) (Window, error) {
	s := &q.steps[si]
	shape := ck.layout.shapes[s.srcIdx]
	if shape == nil {
		return Window{}, fmt.Errorf("graph: quantized step %q has no inferred shape", s.node.name)
	}
	out, err := st.stepOut(si, ck.layout)
	if err != nil {
		return Window{}, err
	}
	ref := ck.vals[s.node.id]
	n, h, w, c := PixelDims(shape)
	whole := Window{0, h, 0, w}
	if ref == nil {
		win = everywhere
	}
	if win = win.clip(h, w); win != whole {
		copy(out.Data(), ref.Data())
	}
	if !win.Empty() {
		if err := q.evalStep(st, ck.feeds, si, out, win); err != nil {
			return Window{}, err
		}
	}
	res := q.finishStep(st, si, out, hook)
	switch {
	case ref == nil:
		return Window{}, nil // nothing after this step reads the value
	case res != out || res.Size() != ref.Size() ||
		math.Float32bits(res.P.Scale) != math.Float32bits(ref.P.Scale) || res.P.Zero != ref.P.Zero:
		return whole, nil
	}
	win = win.Union(strikes.pixels(si, n, h, w, c))
	return differing(res.Data(), ref.Data(), n, h, w, c, win, sameI8), nil
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

// bitset is a fixed-size bitset: Strikes holds its struck steps in one.
type bitset []uint64

// newBitset returns a cleared bitset holding indices [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// set adds index i.
func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

// has reports whether index i is set; indices past the end are unset.
func (b bitset) has(i int) bool { return i>>6 < len(b) && b[i>>6]&(1<<(i&63)) != 0 }

// span returns the first and last set index below n, or (n, n) when
// none is set.
func (b bitset) span(n int) (first, last int) {
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
