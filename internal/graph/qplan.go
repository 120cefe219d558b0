package graph

import (
	"errors"
	"fmt"

	"ranger/internal/tensor"
)

// This file implements the int8 quantization pass over compiled plans.
// Quantize rewrites a Plan into a QPlan: every materialized step becomes
// an int8 kernel (weights pre-quantized, fused epilogues folded into the
// requantization), placeholders become quantize steps, and fetches are
// dequantized on the way out — the quantize/dequantize boundary of a
// post-training-quantized deployment. The QPlan reuses the source plan's
// shape layouts and mirrors its liveness-based buffer-slot assignment,
// so a quantized model runs with the same static memory plan as the
// float one, at one quarter the activation footprint.

// QRange is the calibrated real-value range of one node's output.
type QRange struct {
	Lo, Hi float64
}

// Calibration maps node names to their observed output ranges, the
// product of running representative inputs through a Profiler
// (core.CalibrateModel). Quantize derives each tensor's int8 parameters
// from its range; a missing entry for a materialized node is an error.
type Calibration map[string]QRange

// Params returns the affine int8 parameters for a calibrated range.
func (r QRange) Params() tensor.QParams { return tensor.QParamsFor(r.Lo, r.Hi) }

// QuantSpec is everything an operator needs to compile its int8 kernel:
// the quantization parameters of its runtime inputs and output, the
// float values of its constant (Variable) inputs, and the fused
// epilogue stages of its plan step, which the kernel must fold into its
// requantization pass.
type QuantSpec struct {
	// In holds the runtime inputs' quantization parameters, aligned with
	// the op's inputs; entries at constant positions are zero values.
	In []tensor.QParams
	// Out is the step output's quantization parameters.
	Out tensor.QParams
	// Consts holds the float values of Variable inputs (weights,
	// biases), aligned with the op's inputs; nil at runtime positions.
	Consts []*tensor.Tensor
	// Epilogue is the step's fused elementwise chain (BiasAdd vectors
	// already bound). Stages apply in the real domain between the op's
	// arithmetic and the final quantization, so a RangerClip stage
	// becomes a pair of int8 clamp limits — range restriction at zero
	// marginal cost.
	Epilogue []tensor.Stage
}

// QuantKernel evaluates one quantized step: ins are the runtime input
// tensors aligned with the op's inputs (nil at constant positions), out
// is the step's slot-backed output, and tmp recycles int8/int32
// temporaries. The kernel must compute at least the output pixels in
// win, a non-empty window within out; other pixels may be left as they
// are. Full and suffix replay pass the whole output (Whole); cone
// replay passes the pixels its differing inputs reach, and only to
// kernels of WindowOp operators.
type QuantKernel func(ins []*tensor.QTensor, out *tensor.QTensor, win Window, tmp *tensor.QScratch) error

// QuantizedOp is an optional Op extension: operators that can compile an
// int8 kernel participate in plan quantization. Ops without it make
// Quantize fail with a descriptive error.
type QuantizedOp interface {
	Op
	// QuantKernel compiles the op's int8 kernel for the given spec.
	QuantKernel(spec QuantSpec) (QuantKernel, error)
}

// QuantStoredOp is an optional QuantizedOp extension for operators whose
// int8 kernel reads a stored, pre-quantized weight buffer at run time
// (Dense, Conv2D). It is the hook behind persistent weight-memory faults
// on the int8 backend: QPlan.MaterializeWeights compiles a state-private
// kernel through it and hands the injector the live buffer to corrupt.
type QuantStoredOp interface {
	QuantizedOp
	// QuantKernelStored compiles the kernel exactly like QuantKernel and
	// additionally returns the stored int8 weight buffer the compiled
	// kernel reads at run time. The buffer is private to this compilation
	// — mutating it changes only this kernel's results.
	QuantKernelStored(spec QuantSpec) (QuantKernel, []int8, error)
}

// qStep is one step of a quantized plan.
type qStep struct {
	node    *Node
	srcIdx  int         // index into the source plan's steps (layout lookup)
	inIDs   []int       // runtime input node ids; -1 at constant positions
	kernel  QuantKernel // nil for placeholder (quantize) steps
	window  WindowOp    // the anchor's window geometry, when implemented
	outQ    tensor.QParams
	slot    int
	observe bool
}

// qSpecEntry retains a kernel step's compile inputs so state-private
// kernels can be rebuilt after a stored weight or quantization parameter
// is corrupted. op is nil for placeholder (quantize) steps.
type qSpecEntry struct {
	op   QuantizedOp
	spec QuantSpec
}

// QPlan is an immutable int8 execution schedule derived from a compiled
// Plan. Like a Plan it is safe for concurrent use with per-worker
// QPlanStates.
type QPlan struct {
	src     *Plan
	steps   []qStep
	specs   []qSpecEntry // aligned with steps
	nSlots  int
	fetchID []int
	// lastUse[id] is the last quantized step index reading node id's
	// value; len(steps) for fetches, -1 otherwise. Mirrors Plan.lastUse
	// for slot recycling and suffix-replay checkpointing.
	lastUse []int
	stepOf  map[string]int // node name -> quantized step index
	// nodeStep[id] is the quantized step producing node id (-1 if none);
	// override rebuilds use it to find a corrupted input's producer.
	nodeStep []int
}

// Quantize rewrites a compiled plan into an int8 execution plan using
// the calibrated value ranges: placeholders quantize their feeds,
// Variable weights are folded into their consumers' kernels, every
// other materialized step compiles through its op's QuantizedOp
// extension, and fetches dequantize back to float32. The pass fails if
// a step's op cannot be quantized or a materialized node has no
// calibration entry.
func Quantize(p *Plan, calib Calibration) (*QPlan, error) {
	q := &QPlan{src: p, fetchID: p.fetchID}
	valOf := make(map[int]*tensor.Tensor) // Variable node id -> value
	qpOf := make(map[int]tensor.QParams)  // materialized node id -> params
	isFetch := make(map[int]bool, len(p.fetchID))
	for _, id := range p.fetchID {
		isFetch[id] = true
	}
	for si := range p.steps {
		s := &p.steps[si]
		switch op := s.anchor.op.(type) {
		case *Variable:
			if op.Value == nil {
				return nil, fmt.Errorf("graph: quantize: variable %q has no value", s.node.name)
			}
			if len(s.epilogue) > 0 {
				return nil, fmt.Errorf("graph: quantize: variable %q has fused consumers", s.node.name)
			}
			if isFetch[s.node.id] {
				return nil, fmt.Errorf("graph: quantize: fetch %q is a variable", s.node.name)
			}
			valOf[s.node.id] = op.Value
			continue
		case *Placeholder:
			r, ok := calib[s.node.name]
			if !ok {
				return nil, fmt.Errorf("graph: quantize: no calibration for input %q", s.node.name)
			}
			outQ := r.Params()
			q.steps = append(q.steps, qStep{
				node: s.node, srcIdx: si, outQ: outQ, slot: -1, observe: s.observe,
			})
			q.specs = append(q.specs, qSpecEntry{spec: QuantSpec{Out: outQ}})
			qpOf[s.node.id] = outQ
			continue
		}
		qop, ok := s.anchor.op.(QuantizedOp)
		if !ok {
			return nil, fmt.Errorf("graph: quantize: op %q (%s) has no int8 kernel", s.anchor.name, s.anchor.op.Type())
		}
		r, ok := calib[s.node.name]
		if !ok {
			return nil, fmt.Errorf("graph: quantize: no calibration for %q (%s)", s.node.name, s.node.op.Type())
		}
		spec := QuantSpec{
			In:     make([]tensor.QParams, len(s.inIDs)),
			Out:    r.Params(),
			Consts: make([]*tensor.Tensor, len(s.inIDs)),
		}
		inIDs := make([]int, len(s.inIDs))
		for i, id := range s.inIDs {
			if v, ok := valOf[id]; ok {
				spec.Consts[i] = v
				inIDs[i] = -1
				continue
			}
			qp, ok := qpOf[id]
			if !ok {
				return nil, fmt.Errorf("graph: quantize: input of %q not quantized", s.anchor.name)
			}
			spec.In[i] = qp
			inIDs[i] = id
		}
		for _, e := range s.epilogue {
			st := e.proto
			if e.aux != nil {
				v, ok := e.aux.op.(*Variable)
				if !ok || v.Value == nil {
					return nil, fmt.Errorf("graph: quantize: fused bias of %q is not a variable", s.node.name)
				}
				st.Vec, st.C = v.Value.Data(), v.Value.Size()
			}
			spec.Epilogue = append(spec.Epilogue, st)
		}
		kernel, err := qop.QuantKernel(spec)
		if err != nil {
			return nil, fmt.Errorf("graph: quantize %q (%s): %w", s.anchor.name, s.anchor.op.Type(), err)
		}
		q.steps = append(q.steps, qStep{
			node: s.node, srcIdx: si, inIDs: inIDs, kernel: kernel, window: s.window,
			outQ: spec.Out, slot: -1, observe: s.observe,
		})
		q.specs = append(q.specs, qSpecEntry{op: qop, spec: spec})
		qpOf[s.node.id] = spec.Out
	}
	for _, id := range p.fetchID {
		if _, ok := qpOf[id]; !ok {
			return nil, fmt.Errorf("graph: quantize: fetch not produced by a quantized step")
		}
	}
	q.assignSlots(isFetch)
	q.stepOf = make(map[string]int, len(q.steps))
	q.nodeStep = make([]int, p.g.Len())
	for i := range q.nodeStep {
		q.nodeStep[i] = -1
	}
	for si := range q.steps {
		q.stepOf[q.steps[si].node.name] = si
		q.nodeStep[q.steps[si].node.id] = si
	}
	return q, nil
}

// assignSlots mirrors Plan.assignSlots: a linear scan hands every step
// an int8 output slot and recycles it after the node's last consumer, so
// the quantized plan runs in the same statically-bounded memory as the
// float one. A step's inputs release only after its output slot is
// taken, and fetch outputs are never released. It also fills q.lastUse
// (fetches pinned to len(steps)) for suffix-replay checkpointing.
func (q *QPlan) assignSlots(isFetch map[int]bool) {
	q.lastUse = make([]int, q.src.g.Len())
	for i := range q.lastUse {
		q.lastUse[i] = -1
	}
	for si := range q.steps {
		for _, id := range q.steps[si].inIDs {
			if id >= 0 {
				q.lastUse[id] = si
			}
		}
	}
	releaseAt := make([][]int, len(q.steps))
	var free []int
	for si := range q.steps {
		s := &q.steps[si]
		var slot int
		if n := len(free); n > 0 {
			slot = free[n-1]
			free = free[:n-1]
		} else {
			slot = q.nSlots
			q.nSlots++
		}
		s.slot = slot
		if !isFetch[s.node.id] {
			last := q.lastUse[s.node.id]
			if last < si {
				last = si
			}
			releaseAt[last] = append(releaseAt[last], slot)
		}
		free = append(free, releaseAt[si]...)
	}
	for id, f := range isFetch {
		if f {
			q.lastUse[id] = len(q.steps)
		}
	}
}

// StepOf returns the index of the quantized step producing the named
// node, or -1 when the plan has no such step.
func (q *QPlan) StepOf(name string) int {
	if si, ok := q.stepOf[name]; ok {
		return si
	}
	return -1
}

// Steps returns the number of quantized execution steps.
func (q *QPlan) Steps() int { return len(q.steps) }

// Slots returns the number of statically assigned int8 output buffers.
func (q *QPlan) Slots() int { return q.nSlots }

// QHook observes and optionally replaces a quantized step's int8 output
// — the hook point of the int8 fault injector. Returning a non-nil
// tensor substitutes it for the step's output.
type QHook func(node *Node, out *tensor.QTensor) *tensor.QTensor

// QPlanState is the mutable per-worker execution state of one QPlan.
// States are not safe for concurrent use — give each worker its own.
type QPlanState struct {
	plan  *QPlan
	slots [][]int8
	cache []*tensor.QTensor
	tmps  []*tensor.QScratch
	// ins, outT, fetch, and deq recycle the input gather slice, the
	// per-step output headers, the fetch slice, and the dequantized
	// fetch buffers of RunFrom, mirroring PlanState's zero-alloc paths.
	ins    []*tensor.QTensor
	outT   []*tensor.QTensor
	fetch  []*tensor.Tensor
	deq    []*tensor.Tensor
	layout *planLayout
	// kernels and qOver are the persistent-fault overrides, both nil
	// until first use and private to this state: kernels[si] shadows the
	// plan's shared kernel (a corrupted stored-weight copy, or a kernel
	// rebuilt under corrupted quantization parameters), and qOver[si]
	// shadows step si's output parameters (corrupted scale/zero-point).
	// ClearOverrides drops both — scrub-from-golden repair.
	kernels []QuantKernel
	qOver   []*tensor.QParams
	cone    coneState // RunCone's differing-value record
}

// NewState returns a fresh execution state for the quantized plan.
func (q *QPlan) NewState() *QPlanState {
	return &QPlanState{
		plan:  q,
		slots: make([][]int8, q.nSlots),
		cache: make([]*tensor.QTensor, q.src.g.Len()),
		tmps:  make([]*tensor.QScratch, len(q.steps)),
		outT:  make([]*tensor.QTensor, len(q.steps)),
		fetch: make([]*tensor.Tensor, len(q.fetchID)),
		deq:   make([]*tensor.Tensor, len(q.fetchID)),
	}
}

// outTensor returns the cached int8 output header for a step,
// rebuilding it only when the backing buffer moved or the size changed.
func (st *QPlanState) outTensor(si int, layout *planLayout) (*tensor.QTensor, error) {
	s := &st.plan.steps[si]
	n := layout.sizes[s.srcIdx]
	buf := st.slotBuf(s.slot, n)
	if t := st.outT[si]; t != nil {
		d := t.Data()
		if len(d) == n && (n == 0 || &d[0] == &buf[0]) {
			return t, nil
		}
	}
	t, err := tensor.QFromSlice(buf, s.outQ, layout.shapes[s.srcIdx]...)
	if err != nil {
		return nil, err
	}
	st.outT[si] = t
	return t, nil
}

// stepOut is outTensor plus the state's output-parameter override: when
// step si's quantization parameters are corrupted (PatchOutParams), the
// header every consumer and dequantizer reads carries the corrupted
// values; when the override is cleared the golden parameters return.
func (st *QPlanState) stepOut(si int, layout *planLayout) (*tensor.QTensor, error) {
	t, err := st.outTensor(si, layout)
	if err != nil {
		return nil, err
	}
	if st.qOver != nil {
		if p := st.qOver[si]; p != nil {
			t.P = *p
		} else {
			t.P = st.plan.steps[si].outQ
		}
	}
	return t, nil
}

func (st *QPlanState) slotBuf(slot, n int) []int8 {
	if cap(st.slots[slot]) < n {
		st.slots[slot] = make([]int8, n)
	}
	return st.slots[slot][:n]
}

func (st *QPlanState) tmp(si int) *tensor.QScratch {
	if st.tmps[si] == nil {
		st.tmps[si] = &tensor.QScratch{}
	}
	st.tmps[si].Reset()
	return st.tmps[si]
}

// Run executes the quantized plan against float32 feeds and returns the
// dequantized fetch outputs, in fetch order. Unlike Plan.Run the
// returned tensors are freshly allocated and safe to retain.
func (q *QPlan) Run(st *QPlanState, feeds Feeds) ([]*tensor.Tensor, error) {
	return q.RunHook(st, feeds, nil)
}

// RunHook is Run with an int8 observation hook: hook is called for
// every observation-point step of the source plan with the step's
// quantized output, and may substitute a replacement exactly like
// Plan.RunHook — but in the deployed int8 representation, which is what
// fault scenarios corrupt on the int8 backend.
func (q *QPlan) RunHook(st *QPlanState, feeds Feeds, hook QHook) ([]*tensor.Tensor, error) {
	if st == nil || st.plan != q {
		return nil, errors.New("graph: quantized state belongs to a different plan")
	}
	layout, err := q.src.layoutFor(feeds)
	if err != nil {
		return nil, err
	}
	if err := q.runFrom(st, layout, feeds, 0, hook, nil); err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(q.fetchID))
	for i, id := range q.fetchID {
		outs[i] = st.cache[id].Dequantize()
	}
	return outs, nil
}

// runFrom executes quantized steps [start, len(steps)) against the
// state; the cache must already hold every earlier-produced value those
// steps read (suffix replay restores it from a QCheckpoint). onStep,
// when non-nil, observes every executed step's final output — the
// checkpoint capture path.
func (q *QPlan) runFrom(st *QPlanState, layout *planLayout, feeds Feeds, start int, hook QHook, onStep func(si int, out *tensor.QTensor)) error {
	st.useLayout(layout)
	for si := start; si < len(q.steps); si++ {
		out, err := q.runStep(st, layout, feeds, si, hook)
		if err != nil {
			return err
		}
		if onStep != nil {
			onStep(si, out)
		}
	}
	return nil
}

// useLayout points the state at layout, dropping the cached output
// headers and dequantization buffers when the layout changed.
func (st *QPlanState) useLayout(layout *planLayout) {
	if st.layout != layout {
		for i := range st.outT {
			st.outT[i] = nil
		}
		// deq is size-checked against the fetch on reuse, which cannot
		// catch a same-size different-shape layout switch — drop it too.
		for i := range st.deq {
			st.deq[i] = nil
		}
		st.layout = layout
	}
}

// runStep executes quantized step si — its kernel (or the state's
// override) and observation hook — reading its inputs from the state's
// cache, and stores the step's final output in the cache. It is the one
// step body shared by full and suffix replay; cone replay runs its
// parts, evalStep and finishStep, on windows.
func (q *QPlan) runStep(st *QPlanState, layout *planLayout, feeds Feeds, si int, hook QHook) (*tensor.QTensor, error) {
	s := &q.steps[si]
	shape := layout.shapes[s.srcIdx]
	if shape == nil {
		return nil, fmt.Errorf("graph: quantized step %q has no inferred shape", s.node.name)
	}
	out, err := st.stepOut(si, layout)
	if err != nil {
		return nil, err
	}
	if err := q.evalStep(st, feeds, si, out, Whole(shape)); err != nil {
		return nil, err
	}
	return q.finishStep(st, si, out, hook), nil
}

// evalStep runs step si's kernel (or the state's override) into out,
// computing at least the pixels in win, from the inputs in the state's
// cache. A placeholder step quantizes its whole feed.
func (q *QPlan) evalStep(st *QPlanState, feeds Feeds, si int, out *tensor.QTensor, win Window) error {
	s := &q.steps[si]
	kernel := s.kernel
	if st.kernels != nil && st.kernels[si] != nil {
		kernel = st.kernels[si]
	}
	if kernel == nil {
		// Placeholder: quantize the feed (presence and shape were
		// validated by the layout signature).
		if _, err := tensor.QuantizeInto(out, feeds[s.node.name]); err != nil {
			return fmt.Errorf("graph: quantize feed %q: %w", s.node.name, err)
		}
		return nil
	}
	st.ins = st.ins[:0]
	for _, id := range s.inIDs {
		if id < 0 {
			st.ins = append(st.ins, nil)
			continue
		}
		in := st.cache[id]
		if in == nil {
			return fmt.Errorf("graph: input of %q not evaluated", s.node.name)
		}
		st.ins = append(st.ins, in)
	}
	if err := kernel(st.ins, out, win, st.tmp(si)); err != nil {
		return fmt.Errorf("eval int8 %q (%s): %w", s.node.name, s.node.op.Type(), err)
	}
	return nil
}

// finishStep hands step si's output to the observation hook and caches
// the final value (the hook's replacement, if any), which it returns.
func (q *QPlan) finishStep(st *QPlanState, si int, out *tensor.QTensor, hook QHook) *tensor.QTensor {
	s := &q.steps[si]
	if hook != nil && s.observe {
		if repl := hook(s.node, out); repl != nil {
			out = repl
		}
	}
	st.cache[s.node.id] = out
	return out
}

// ensureOverrides lazily allocates the state's override tables.
func (st *QPlanState) ensureOverrides() {
	if st.kernels == nil {
		st.kernels = make([]QuantKernel, len(st.plan.steps))
		st.qOver = make([]*tensor.QParams, len(st.plan.steps))
	}
}

// ClearOverrides drops every kernel and parameter override from the
// state: the next run executes the plan's shared golden kernels with
// golden quantization parameters (scrub-from-golden repair).
func (st *QPlanState) ClearOverrides() {
	for i := range st.kernels {
		st.kernels[i] = nil
	}
	for i := range st.qOver {
		st.qOver[i] = nil
	}
}

// StoredWeights returns the names and stored int8 weight element counts
// of the quantized steps whose kernels read a stored weight buffer
// (QuantStoredOp ops) — the stored-weight fault space of the int8
// backend. Sizes come from an actual stored-kernel compilation, so they
// match MaterializeWeights buffers exactly.
func (q *QPlan) StoredWeights() (names []string, sizes []int, err error) {
	for si := range q.steps {
		sop, ok := q.specs[si].op.(QuantStoredOp)
		if !ok {
			continue
		}
		_, buf, err := sop.QuantKernelStored(q.specs[si].spec)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: stored weights of %q: %w", q.steps[si].node.name, err)
		}
		names = append(names, q.steps[si].node.name)
		sizes = append(sizes, len(buf))
	}
	return names, sizes, nil
}

// MaterializeWeights compiles a state-private kernel for the named step
// through its op's QuantStoredOp extension and installs it as the
// state's kernel override, returning the live stored int8 weight buffer
// the private kernel reads. Corrupting the buffer in place corrupts this
// state's subsequent runs only; ClearOverrides restores the shared
// golden kernel. The buffer starts as a fresh deterministic
// re-quantization of the golden float weights, bit-identical to the
// shared kernel's.
func (q *QPlan) MaterializeWeights(st *QPlanState, name string) ([]int8, error) {
	if st == nil || st.plan != q {
		return nil, errors.New("graph: quantized state belongs to a different plan")
	}
	si := q.StepOf(name)
	if si < 0 {
		return nil, fmt.Errorf("graph: quantized plan has no step %q", name)
	}
	sop, ok := q.specs[si].op.(QuantStoredOp)
	if !ok {
		return nil, fmt.Errorf("graph: step %q has no stored weights", name)
	}
	st.ensureOverrides()
	kernel, buf, err := sop.QuantKernelStored(q.effectiveSpec(st, si))
	if err != nil {
		return nil, fmt.Errorf("graph: materialize weights of %q: %w", name, err)
	}
	st.kernels[si] = kernel
	return buf, nil
}

// StepParams returns the named quantized step's golden output
// quantization parameters.
func (q *QPlan) StepParams(name string) (tensor.QParams, bool) {
	si := q.StepOf(name)
	if si < 0 {
		return tensor.QParams{}, false
	}
	return q.steps[si].outQ, true
}

// StepNames returns the names of every quantized step, in schedule order
// — the quant-param fault space (each step owns one scale/zero-point
// pair).
func (q *QPlan) StepNames() []string {
	names := make([]string, len(q.steps))
	for si := range q.steps {
		names[si] = q.steps[si].node.name
	}
	return names
}

// effectiveSpec is the named step's compile spec with the state's
// parameter overrides applied: its own Out if overridden, and every
// runtime input's params replaced by its producer's override. The
// retained spec is never mutated.
func (q *QPlan) effectiveSpec(st *QPlanState, si int) QuantSpec {
	spec := q.specs[si].spec
	if st.qOver == nil {
		return spec
	}
	if p := st.qOver[si]; p != nil {
		spec.Out = *p
	}
	var in []tensor.QParams
	for i, id := range q.steps[si].inIDs {
		if id < 0 {
			continue
		}
		pj := q.nodeStep[id]
		if pj < 0 || st.qOver[pj] == nil {
			continue
		}
		if in == nil {
			in = append([]tensor.QParams{}, spec.In...)
		}
		in[i] = *st.qOver[pj]
	}
	if in != nil {
		spec.In = in
	}
	return spec
}

// PatchOutParams installs corrupted output quantization parameters for
// the named step on this state: the step's output header carries p, the
// step's own kernel (if any) is rebuilt to requantize into p, and every
// consumer kernel is rebuilt to interpret its input under p — exactly
// what a corrupted stored scale/zero-point does to a real deployment,
// where producer and consumers read the same corrupted parameter memory.
// A rebuild that fails (the corrupted parameters make a kernel
// uncompilable, e.g. a NaN scale overflowing a folded bias) returns the
// error with the state in a partial-override condition — callers must
// ClearOverrides before reusing the state, and should account the trial
// as a detected unrecoverable error (DUE).
func (q *QPlan) PatchOutParams(st *QPlanState, name string, p tensor.QParams) error {
	if st == nil || st.plan != q {
		return errors.New("graph: quantized state belongs to a different plan")
	}
	si := q.StepOf(name)
	if si < 0 {
		return fmt.Errorf("graph: quantized plan has no step %q", name)
	}
	st.ensureOverrides()
	st.qOver[si] = &p
	if op := q.specs[si].op; op != nil {
		kernel, err := op.QuantKernel(q.effectiveSpec(st, si))
		if err != nil {
			return fmt.Errorf("graph: rebuild %q under corrupted params: %w", name, err)
		}
		st.kernels[si] = kernel
	}
	id := q.steps[si].node.id
	for sj := si + 1; sj < len(q.steps); sj++ {
		consumes := false
		for _, in := range q.steps[sj].inIDs {
			if in == id {
				consumes = true
				break
			}
		}
		if !consumes {
			continue
		}
		kernel, err := q.specs[sj].op.QuantKernel(q.effectiveSpec(st, sj))
		if err != nil {
			return fmt.Errorf("graph: rebuild consumer %q under corrupted params: %w", q.steps[sj].node.name, err)
		}
		st.kernels[sj] = kernel
	}
	return nil
}
