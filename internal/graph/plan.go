package graph

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ranger/internal/tensor"
)

// This file implements compiled execution plans: Compile analyses a graph
// once — schedule, shape inference, liveness, operator fusion — and the
// resulting immutable Plan is then run many times against per-worker
// PlanStates. Plans are how campaigns, batch evaluation, and the public
// facade execute models; the per-call Executor remains the reference
// implementation and the two paths produce bit-identical outputs.

// ShapeOp is an optional Op extension: operators that can infer their
// output shape from input shapes participate in compile-time shape
// planning (static buffer assignment and up-front shape validation).
// Ops without it still execute under a Plan through the Eval fallback.
type ShapeOp interface {
	Op
	// InferShape returns the output shape for the given input shapes, or
	// an error if the inputs are invalid. A scalar output is []int{}.
	InferShape(inputs [][]int) ([]int, error)
}

// PlannedOp is an optional Op extension: operators that can evaluate
// into a caller-provided output tensor draw that tensor from the plan's
// statically assigned buffer slots instead of allocating per call.
type PlannedOp interface {
	Op
	// EvalInto computes the output pixels in win (non-empty and within
	// the output) like Eval, writing them into out, whose shape is the
	// op's inferred output shape. It writes exactly those pixels,
	// bit-identical to a call on the whole value (Whole of out's shape),
	// and leaves every other pixel of out as it was. Only a WindowOp is
	// given a window smaller than the whole value.
	EvalInto(inputs []*tensor.Tensor, out *tensor.Tensor, win Window) error
}

// FusableOp is an optional Op extension for single-input elementwise
// operators (plus a broadcast vector, for BiasAdd) that can fold into
// their producer's evaluation loop as a fused epilogue stage.
type FusableOp interface {
	Op
	// FuseSpec returns a compile-time description of the op's elementwise
	// transform. ok is false when the op's configuration cannot fuse (for
	// example a RangerClip with a non-default policy); such nodes simply
	// stay materialized.
	FuseSpec() (tensor.Stage, bool)
}

// WindowOp is an optional Op extension for operators each of whose
// output pixels reads a bounded box of input pixels (convolution,
// pooling, elementwise and channel-stacking ops). Cone replay maps the
// windows of a step's differing inputs through OutWindow and recomputes
// only the resulting output pixels through EvalInto; every other output
// pixel reads only clean inputs, so the checkpoint's value stands for
// it. The op's int8 kernel (QuantizedOp) must then compute at least the
// window it is given. Steps of ops without the extension recompute the
// whole value.
type WindowOp interface {
	PlannedOp
	// OutWindow returns the window of output pixels (of an output shaped
	// out) that read any pixel of input i's window in. ok is false when
	// the op's configuration has no windowed kernel; its steps then
	// recompute the whole value.
	OutWindow(i int, in Window, out []int) (w Window, ok bool)
}

// ErrFeedShape reports a feed tensor whose shape contradicts the
// placeholder's declared shape. It is returned (wrapped) by Executor and
// Plan runs before any kernel executes, instead of a panic deep inside
// one.
var ErrFeedShape = errors.New("graph: feed shape mismatch")

// CheckShape validates a feed tensor's shape against the placeholder's
// declared shape. A nil declared shape accepts anything; a declared
// dimension of 0 means "any" (the batch dimension).
func (p *Placeholder) CheckShape(shape []int) error {
	if len(p.Shape) == 0 {
		return nil
	}
	if len(shape) != len(p.Shape) {
		return fmt.Errorf("%w: rank %d, declared %v", ErrFeedShape, len(shape), p.Shape)
	}
	for i, d := range p.Shape {
		if d != 0 && shape[i] != d {
			return fmt.Errorf("%w: shape %v, declared %v", ErrFeedShape, shape, p.Shape)
		}
	}
	return nil
}

// CompileOptions configure Compile.
type CompileOptions struct {
	// Observe lists node names that are observation points: their outputs
	// are materialized unfused and delivered to the run hook exactly as
	// the legacy executor would, so fault injectors, profilers, and
	// detectors see identical intermediate values. Names absent from the
	// graph are ignored.
	Observe []string
	// ObserveAll marks every scheduled node as an observation point
	// (detectors observe every operator output).
	ObserveAll bool
	// NoFuse disables the fusion pass. It exists only as the unfused
	// reference that the plan goldens and FuzzFusedPlanBitIdentical
	// compare fused plans against; results are bit-identical either way.
	NoFuse bool
}

// stageSpec is one fused epilogue stage at compile time: the stage
// template plus the node supplying the StageBias vector (bound to the
// live tensor at run time).
type stageSpec struct {
	proto tensor.Stage
	aux   *Node // vector input for StageBias; nil otherwise
}

// auxTensor resolves a fused stage's vector input. Variable nodes may be
// scheduled after the step their vector folds into (graphs append the
// bias variable right before the BiasAdd that consumes it), so they bind
// straight to the variable's value.
func (st *PlanState) auxTensor(n *Node) *tensor.Tensor {
	if t := st.vars[n.id]; t != nil {
		return t
	}
	if t := st.cache[n.id]; t != nil {
		return t
	}
	if v, ok := n.op.(*Variable); ok {
		return v.Value
	}
	return nil
}

// planStep executes one materialized node, possibly with a fused chain
// of elementwise consumers applied in the same pass.
type planStep struct {
	node     *Node     // the node whose value this step produces (chain end)
	anchor   *Node     // the node whose kernel evaluates (chain head)
	planned  PlannedOp // anchor's EvalInto, when implemented
	window   WindowOp  // anchor's window map, when implemented
	inIDs    []int     // anchor input node ids
	epilogue []stageSpec
	slot     int  // statically assigned output slot; -1 = not slot-backed
	observe  bool // deliver the output to the run hook
}

// planLayout is the concrete sizing of a plan for one input-shape
// signature: per-step output shapes (from shape inference) and per-slot
// buffer lengths. Layouts are derived on first use per signature and
// cached in the plan.
type planLayout struct {
	shapes  [][]int // per step; nil = unknown (Eval fallback)
	sizes   []int   // per step; element count of shapes, 0 if unknown
	slotLen []int   // per slot; max element count over assigned steps
}

// Plan is an immutable compiled execution schedule for one (graph,
// fetches) pair: the topologically-ordered steps restricted to the fetch
// ancestors, the fused epilogue chains, and a static buffer-slot
// assignment computed from liveness analysis. A Plan is safe for
// concurrent use; per-run mutable state lives in PlanState (one per
// worker).
type Plan struct {
	g       *Graph
	fetches []string
	fetchID []int
	steps   []planStep
	nSlots  int
	folded  int
	// lastUse[id] is the last step index reading node id's value (as an
	// input or a fused epilogue vector); len(steps) for fetches, which
	// stay live to the end, and -1 for values nothing reads. It drives
	// both the slot assignment and checkpoint capture/restore.
	lastUse []int
	stepOf  map[string]int // materialized node name -> step index

	mu      sync.RWMutex
	layouts map[string]*planLayout
}

// Compile builds an execution plan for the graph restricted to the
// ancestors of the fetches, with fusion enabled and no observation
// points (the pure-inference configuration).
func Compile(g *Graph, fetches ...string) (*Plan, error) {
	return CompileWith(g, CompileOptions{}, fetches...)
}

// CompileWith is Compile with explicit options.
func CompileWith(g *Graph, opts CompileOptions, fetches ...string) (*Plan, error) {
	if len(fetches) == 0 {
		return nil, errors.New("graph: compile with no fetches")
	}
	needed, err := neededFor(g, fetches)
	if err != nil {
		return nil, err
	}
	observed := make([]bool, g.Len())
	if opts.ObserveAll {
		copy(observed, needed)
	}
	for _, name := range opts.Observe {
		if n, ok := g.byName[name]; ok && needed[n.id] {
			observed[n.id] = true
		}
	}
	isFetch := make([]bool, g.Len())
	fetchID := make([]int, len(fetches))
	for i, f := range fetches {
		n := g.byName[f]
		isFetch[n.id] = true
		fetchID[i] = n.id
	}

	// Consumer counts within the schedule (fusion requires a single
	// consumer for every eliminated intermediate).
	consumers := make([]int, g.Len())
	for _, n := range g.nodes {
		if !needed[n.id] {
			continue
		}
		for _, in := range n.inputs {
			consumers[in.id]++
		}
	}

	// Build steps in topological (insertion) order, folding fusable
	// elementwise consumers into their producer's step.
	p := &Plan{g: g, fetches: append([]string{}, fetches...), fetchID: fetchID, layouts: make(map[string]*planLayout)}
	stepOf := make([]int, g.Len())
	for i := range stepOf {
		stepOf[i] = -1
	}
	for _, n := range g.nodes {
		if !needed[n.id] {
			continue
		}
		if !opts.NoFuse {
			if spec, aux, ok := fuseCandidate(n, p.steps, stepOf, consumers, observed, isFetch); ok {
				s := &p.steps[stepOf[n.inputs[0].id]]
				s.epilogue = append(s.epilogue, stageSpec{proto: spec, aux: aux})
				s.node = n
				s.observe = observed[n.id]
				stepOf[n.id] = stepOf[n.inputs[0].id]
				p.folded++
				continue
			}
		}
		planned, _ := n.op.(PlannedOp)
		window, _ := n.op.(WindowOp)
		inIDs := make([]int, len(n.inputs))
		for i, in := range n.inputs {
			inIDs[i] = in.id
		}
		p.steps = append(p.steps, planStep{
			node: n, anchor: n, planned: planned, window: window, inIDs: inIDs,
			slot: -1, observe: observed[n.id],
		})
		stepOf[n.id] = len(p.steps) - 1
	}

	p.computeLastUse(isFetch)
	p.assignSlots(isFetch)
	p.stepOf = make(map[string]int, len(p.steps))
	for si := range p.steps {
		p.stepOf[p.steps[si].node.name] = si
	}
	return p, nil
}

// computeLastUse fills p.lastUse: the last step index consuming each
// node's value, with fetches pinned to len(steps) (live forever).
func (p *Plan) computeLastUse(isFetch []bool) {
	p.lastUse = make([]int, p.g.Len())
	for i := range p.lastUse {
		p.lastUse[i] = -1
	}
	for si := range p.steps {
		s := &p.steps[si]
		for _, id := range s.inIDs {
			p.lastUse[id] = si
		}
		for _, e := range s.epilogue {
			if e.aux != nil && p.lastUse[e.aux.id] < si {
				p.lastUse[e.aux.id] = si
			}
		}
	}
	for id, f := range isFetch {
		if f {
			p.lastUse[id] = len(p.steps)
		}
	}
}

// fuseCandidate reports whether node n can fold into the step producing
// its primary input. The producer's current chain end must not be a
// fetch, an observation point, multi-consumer, or a Placeholder/Variable
// (whose outputs alias feeds and weights and must never be mutated in
// place).
func fuseCandidate(n *Node, steps []planStep, stepOf, consumers []int, observed, isFetch []bool) (tensor.Stage, *Node, bool) {
	var none tensor.Stage
	fop, ok := n.op.(FusableOp)
	if !ok || len(n.inputs) == 0 {
		return none, nil, false
	}
	spec, ok := fop.FuseSpec()
	if !ok {
		return none, nil, false
	}
	prod := n.inputs[0]
	si := stepOf[prod.id]
	if si < 0 || steps[si].node != prod {
		return none, nil, false
	}
	var aux *Node
	if spec.Kind == tensor.StageBias {
		if len(n.inputs) != 2 {
			return none, nil, false
		}
		aux = n.inputs[1]
		if aux == prod {
			return none, nil, false
		}
		// The vector must be available when the fused step runs: either a
		// Variable (bound straight to its value, even when its node is
		// scheduled after the anchor) or a node materialized at or before
		// the anchor's step.
		if _, isVar := aux.op.(*Variable); !isVar {
			as := stepOf[aux.id]
			if as < 0 || as > si || steps[as].node != aux {
				return none, nil, false
			}
		}
	} else if len(n.inputs) != 1 {
		return none, nil, false
	}
	switch prod.op.(type) {
	case *Placeholder, *Variable:
		return none, nil, false
	}
	if consumers[prod.id] != 1 || isFetch[prod.id] || observed[prod.id] {
		return none, nil, false
	}
	return spec, aux, true
}

// assignSlots runs a linear scan over the steps, giving every
// PlannedOp-backed step an output slot and returning slots to the free
// list once their node's last consumer (p.lastUse) has executed. A
// step's own inputs are released only after its output slot is taken,
// so an output never aliases a live input. Fetch outputs are never
// released.
func (p *Plan) assignSlots(isFetch []bool) {
	releaseAt := make([][]int, len(p.steps))
	var free []int
	for si := range p.steps {
		s := &p.steps[si]
		if s.planned != nil {
			var slot int
			if n := len(free); n > 0 {
				slot = free[n-1]
				free = free[:n-1]
			} else {
				slot = p.nSlots
				p.nSlots++
			}
			s.slot = slot
			if !isFetch[s.node.id] {
				last := p.lastUse[s.node.id]
				if last < si {
					last = si // no consumers: reusable after this step's hook
				}
				releaseAt[last] = append(releaseAt[last], slot)
			}
		}
		free = append(free, releaseAt[si]...)
	}
}

// Fetches returns the plan's fetch node names.
func (p *Plan) Fetches() []string { return append([]string{}, p.fetches...) }

// Steps returns the number of materialized execution steps.
func (p *Plan) Steps() int { return len(p.steps) }

// FusedNodes returns how many nodes the fusion pass folded into their
// producers' loops.
func (p *Plan) FusedNodes() int { return p.folded }

// Slots returns the number of statically assigned output buffers; it is
// at most the number of steps and usually far smaller, because liveness
// analysis reuses a buffer as soon as its last consumer has run.
func (p *Plan) Slots() int { return p.nSlots }

// StepOf returns the index of the plan step producing the named node, or
// -1 when the plan has no such step (the node was pruned from the
// schedule or fused into a consumer). Fault injectors use it to map a
// sampled site to its injection depth for suffix replay.
func (p *Plan) StepOf(name string) int {
	if si, ok := p.stepOf[name]; ok {
		return si
	}
	return -1
}

// Weights returns the names and element counts of the Variable nodes the
// plan consumes, in schedule order — the stored-weight fault space of
// the fp32 backend.
func (p *Plan) Weights() (names []string, sizes []int) {
	for si := range p.steps {
		s := &p.steps[si]
		v, ok := s.anchor.op.(*Variable)
		if !ok || v.Value == nil {
			continue
		}
		names = append(names, s.node.name)
		sizes = append(sizes, v.Value.Size())
	}
	return names, sizes
}

// VarValue returns the golden (uncorrupted) value of the named Variable,
// or nil if the plan has no such Variable step.
func (p *Plan) VarValue(name string) *tensor.Tensor {
	si := p.StepOf(name)
	if si < 0 {
		return nil
	}
	if v, ok := p.steps[si].anchor.op.(*Variable); ok {
		return v.Value
	}
	return nil
}

// VarDepth returns the earliest step that reads the named Variable's
// value — as a kernel input or a fused epilogue vector — which is where
// a suffix replay must start after the variable's stored value changes.
// Fused bias variables can be scheduled after the anchor that consumes
// them, so this can be earlier than the variable's own step. Returns -1
// if the plan has no such Variable.
func (p *Plan) VarDepth(name string) int {
	si := p.StepOf(name)
	if si < 0 {
		return -1
	}
	if _, ok := p.steps[si].anchor.op.(*Variable); !ok {
		return -1
	}
	id := p.steps[si].node.id
	depth := si
	for sj := range p.steps {
		s := &p.steps[sj]
		for _, in := range s.inIDs {
			if in == id && sj < depth {
				depth = sj
			}
		}
		for _, e := range s.epilogue {
			if e.aux != nil && e.aux.id == id && sj < depth {
				depth = sj
			}
		}
	}
	return depth
}

// OverrideVar installs a per-state override for the named Variable: every
// run on st reads t in place of the variable's stored value, while the
// plan's golden copy (and every other state) is untouched. t must match
// the golden value's shape. Overriding the same variable again replaces
// the previous override; ClearVarOverrides removes them all (the repair
// path — the next run reads golden weights again).
func (p *Plan) OverrideVar(st *PlanState, name string, t *tensor.Tensor) error {
	if st == nil || st.plan != p {
		return errors.New("graph: plan state belongs to a different plan")
	}
	si := p.StepOf(name)
	if si < 0 {
		return fmt.Errorf("graph: plan has no step %q", name)
	}
	v, ok := p.steps[si].anchor.op.(*Variable)
	if !ok {
		return fmt.Errorf("graph: step %q is not a variable", name)
	}
	if t == nil {
		return fmt.Errorf("graph: nil override for variable %q", name)
	}
	if v.Value != nil && v.Value.Size() != t.Size() {
		return fmt.Errorf("graph: override for %q has %d elements, variable has %d", name, t.Size(), v.Value.Size())
	}
	if st.vars == nil {
		st.vars = make(map[int]*tensor.Tensor)
	}
	st.vars[p.steps[si].node.id] = t
	return nil
}

// ClearVarOverrides removes every Variable override from the state: the
// next run reads the plan's golden weights (scrub-from-golden repair).
func (st *PlanState) ClearVarOverrides() {
	for id := range st.vars {
		delete(st.vars, id)
	}
}

// InferredShapes resolves the plan against the given feeds and returns
// the inferred output shape of every materialized node (nodes whose ops
// cannot infer shapes are omitted).
func (p *Plan) InferredShapes(feeds Feeds) (map[string][]int, error) {
	layout, err := p.layoutFor(feeds)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int, len(p.steps))
	for si := range p.steps {
		if layout.shapes[si] != nil {
			out[p.steps[si].node.name] = append([]int{}, layout.shapes[si]...)
		}
	}
	return out, nil
}

// signature builds the layout cache key from the feed shapes of the
// plan's placeholders, validating each against the placeholder's
// declared shape (so every Run rejects mis-shaped feeds up front with a
// typed error).
func (p *Plan) signature(feeds Feeds) (string, error) {
	var b strings.Builder
	for si := range p.steps {
		ph, ok := p.steps[si].anchor.op.(*Placeholder)
		if !ok {
			continue
		}
		name := p.steps[si].node.name
		t, ok := feeds[name]
		if !ok {
			return "", fmt.Errorf("%w: %q", ErrMissingFeed, name)
		}
		if err := ph.CheckShape(t.Shape()); err != nil {
			return "", fmt.Errorf("feed %q: %w", name, err)
		}
		b.WriteString(name)
		for _, d := range t.Shape() {
			b.WriteByte('x')
			b.WriteString(strconv.Itoa(d))
		}
		b.WriteByte(';')
	}
	return b.String(), nil
}

// layoutFor returns the cached layout for the feeds' shape signature,
// deriving it by shape inference on first use.
func (p *Plan) layoutFor(feeds Feeds) (*planLayout, error) {
	key, err := p.signature(feeds)
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	l := p.layouts[key]
	p.mu.RUnlock()
	if l != nil {
		return l, nil
	}
	l, err = p.deriveLayout(feeds)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if prev, ok := p.layouts[key]; ok {
		l = prev
	} else {
		p.layouts[key] = l
	}
	p.mu.Unlock()
	return l, nil
}

func (p *Plan) deriveLayout(feeds Feeds) (*planLayout, error) {
	l := &planLayout{
		shapes:  make([][]int, len(p.steps)),
		sizes:   make([]int, len(p.steps)),
		slotLen: make([]int, p.nSlots),
	}
	shapeOf := make(map[int][]int, len(p.steps))
	for si := range p.steps {
		s := &p.steps[si]
		var sh []int
		switch op := s.anchor.op.(type) {
		case *Placeholder:
			sh = feeds[s.node.name].Shape() // presence checked in signature
		case *Variable:
			if op.Value == nil {
				return nil, fmt.Errorf("graph: variable %q has no value", s.node.name)
			}
			sh = op.Value.Shape()
		default:
			ins := make([][]int, len(s.inIDs))
			known := true
			for i, id := range s.inIDs {
				ins[i] = shapeOf[id]
				if ins[i] == nil {
					known = false
				}
			}
			if sop, ok := s.anchor.op.(ShapeOp); ok && known {
				var err error
				sh, err = sop.InferShape(ins)
				if err != nil {
					return nil, fmt.Errorf("graph: infer shape of %q (%s): %w", s.anchor.name, s.anchor.op.Type(), err)
				}
			}
			// Epilogue stages are shape-preserving; validate StageBias
			// vectors against the anchor shape when both are known.
			if sh != nil {
				for _, e := range s.epilogue {
					if e.aux == nil {
						continue
					}
					vsh := shapeOf[e.aux.id]
					if vsh == nil {
						if v, ok := e.aux.op.(*Variable); ok && v.Value != nil {
							vsh = v.Value.Shape()
						}
					}
					if vsh == nil {
						continue
					}
					if len(vsh) != 1 || len(sh) == 0 || vsh[0] != sh[len(sh)-1] {
						return nil, fmt.Errorf("graph: fused bias %v for output %v of %q", vsh, sh, s.node.name)
					}
				}
			}
		}
		l.shapes[si] = sh
		if sh != nil {
			n := 1
			for _, d := range sh {
				n *= d
			}
			l.sizes[si] = n
			if s.slot >= 0 && n > l.slotLen[s.slot] {
				l.slotLen[s.slot] = n
			}
		}
		shapeOf[s.node.id] = sh
	}
	return l, nil
}

// PlanState is the mutable per-worker execution state of one Plan: the
// slot buffers and the node-output cache.
// States are not safe for concurrent use — give each worker its own.
// Tensors returned by Run remain valid only until the next Run on the
// same state; Clone anything that must survive.
type PlanState struct {
	plan   *Plan
	slots  [][]float32
	cache  []*tensor.Tensor
	stages [][]tensor.Stage
	// ins, outT, and fetch recycle the per-step input gather slice, the
	// per-step output tensor headers over the slot buffers, and the
	// fetch-output slice, so steady-state plan execution allocates
	// nothing per run. outT is rebuilt when the layout changes or a slot
	// buffer is regrown.
	ins    []*tensor.Tensor
	outT   []*tensor.Tensor
	fetch  []*tensor.Tensor
	layout *planLayout
	// vars holds per-state Variable value overrides (node id -> tensor),
	// the mechanism behind persistent weight-memory faults: an override
	// shadows Variable.Value for this state only, so one worker can run
	// with a corrupted weight while the shared plan (and every other
	// state) keeps the golden copy. See Plan.OverrideVar.
	vars map[int]*tensor.Tensor
	cone coneState // RunCone's differing-value record
}

// NewState returns a fresh execution state for the plan.
func (p *Plan) NewState() *PlanState {
	return &PlanState{
		plan:   p,
		slots:  make([][]float32, p.nSlots),
		cache:  make([]*tensor.Tensor, p.g.Len()),
		stages: make([][]tensor.Stage, len(p.steps)),
		outT:   make([]*tensor.Tensor, len(p.steps)),
		fetch:  make([]*tensor.Tensor, len(p.fetchID)),
	}
}

// outTensor returns the cached output header for a slot-backed step,
// rebuilding it only when the backing buffer moved or the size changed.
func (st *PlanState) outTensor(si int, layout *planLayout) (*tensor.Tensor, error) {
	s := &st.plan.steps[si]
	n := layout.sizes[si]
	buf := st.slotBuf(s.slot, layout.slotLen[s.slot])[:n]
	if t := st.outT[si]; t != nil {
		d := t.Data()
		if len(d) == n && (n == 0 || &d[0] == &buf[0]) {
			return t, nil
		}
	}
	t, err := tensor.FromSlice(buf, layout.shapes[si]...)
	if err != nil {
		return nil, err
	}
	st.outT[si] = t
	return t, nil
}

func (st *PlanState) slotBuf(slot, n int) []float32 {
	if cap(st.slots[slot]) < n {
		st.slots[slot] = make([]float32, n)
	}
	return st.slots[slot][:n]
}

func (st *PlanState) stageBuf(si int, specs []stageSpec) []tensor.Stage {
	if st.stages[si] == nil {
		stages := make([]tensor.Stage, len(specs))
		for i, e := range specs {
			stages[i] = e.proto
		}
		st.stages[si] = stages
	}
	return st.stages[si]
}

// Run executes the plan against the feeds and returns the fetch
// outputs, in fetch order. Outputs are valid until the next Run on the
// same state.
func (p *Plan) Run(st *PlanState, feeds Feeds) ([]*tensor.Tensor, error) {
	return p.RunHook(st, feeds, nil)
}

// RunHook is Run with an observation hook: hook is called for every
// observation-point node (CompileOptions.Observe / ObserveAll) with the
// node's output, in schedule order, and may substitute a replacement
// exactly like Executor.Hook.
func (p *Plan) RunHook(st *PlanState, feeds Feeds, hook Hook) ([]*tensor.Tensor, error) {
	if st == nil || st.plan != p {
		return nil, errors.New("graph: plan state belongs to a different plan")
	}
	layout, err := p.layoutFor(feeds)
	if err != nil {
		return nil, err
	}
	outs, err := p.runFrom(st, layout, feeds, 0, hook, nil)
	if err != nil {
		return nil, err
	}
	return append([]*tensor.Tensor{}, outs...), nil
}

// runFrom executes steps [start, len(steps)) against the state, whose
// cache must already hold every value those steps read that was produced
// before start (start=0 needs nothing; suffix replay restores the live
// set from a Checkpoint first). onStep, when non-nil, observes every
// executed step's final output (after any hook substitution) — the
// checkpoint capture path. The returned slice is owned by the state and
// reused by the next run.
func (p *Plan) runFrom(st *PlanState, layout *planLayout, feeds Feeds, start int, hook Hook, onStep func(si int, out *tensor.Tensor)) ([]*tensor.Tensor, error) {
	st.useLayout(layout)
	for si := start; si < len(p.steps); si++ {
		out, err := p.runStep(st, layout, feeds, si, hook)
		if err != nil {
			return nil, err
		}
		if onStep != nil {
			onStep(si, out)
		}
	}
	for i, id := range p.fetchID {
		st.fetch[i] = st.cache[id]
	}
	return st.fetch, nil
}

// useLayout points the state at layout, dropping the cached output
// headers when the layout changed.
func (st *PlanState) useLayout(layout *planLayout) {
	if st.layout != layout {
		for i := range st.outT {
			st.outT[i] = nil
		}
		st.layout = layout
	}
}

// runStep executes step si — its kernel, fused epilogue and observation
// hook — reading its inputs from the state's cache, and stores the
// step's final output (after any hook substitution) in the cache. It is
// the one step body shared by full and suffix replay; cone replay runs
// its parts, evalStep and finishStep, on windows.
func (p *Plan) runStep(st *PlanState, layout *planLayout, feeds Feeds, si int, hook Hook) (*tensor.Tensor, error) {
	out, err := p.evalStep(st, layout, feeds, si, everywhere)
	if err != nil {
		return nil, err
	}
	return p.finishStep(st, si, out, hook), nil
}

// evalStep computes step si's output — kernel and fused epilogue — from
// the inputs in the state's cache, on the pixels of win clipped to the
// output (everywhere is the whole value). A smaller window needs a
// slot-backed step with a WindowOp anchor; the rest of the slot stays as
// it was.
func (p *Plan) evalStep(st *PlanState, layout *planLayout, feeds Feeds, si int, win Window) (*tensor.Tensor, error) {
	s := &p.steps[si]
	switch op := s.anchor.op.(type) {
	case *Placeholder:
		return feeds[s.node.name], nil
	case *Variable:
		if t := st.vars[s.node.id]; t != nil {
			return t, nil
		}
		if op.Value == nil {
			return nil, fmt.Errorf("graph: variable %q has no value", s.node.name)
		}
		return op.Value, nil
	}
	st.ins = st.ins[:0]
	for _, id := range s.inIDs {
		in := st.cache[id]
		if in == nil {
			return nil, fmt.Errorf("graph: input of %q not evaluated", s.anchor.name)
		}
		st.ins = append(st.ins, in)
	}
	var out *tensor.Tensor
	if s.planned != nil && s.slot >= 0 && layout.shapes[si] != nil {
		ot, err := st.outTensor(si, layout)
		if err != nil {
			return nil, err
		}
		_, h, w, _ := Pixels(ot)
		win = win.clip(h, w)
		if err := s.planned.EvalInto(st.ins, ot, win); err != nil {
			return nil, fmt.Errorf("eval %q (%s): %w", s.anchor.name, s.anchor.op.Type(), err)
		}
		out = ot
	} else {
		t, err := s.anchor.op.Eval(st.ins)
		if err != nil {
			return nil, fmt.Errorf("eval %q (%s): %w", s.anchor.name, s.anchor.op.Type(), err)
		}
		_, h, w, _ := Pixels(t)
		out, win = t, Window{0, h, 0, w}
	}
	if len(s.epilogue) > 0 {
		stages := st.stageBuf(si, s.epilogue)
		for k, e := range s.epilogue {
			if e.aux == nil {
				continue
			}
			vec := st.auxTensor(e.aux)
			r := out.Rank()
			if vec == nil || vec.Rank() != 1 || r == 0 || vec.Size() != out.Dim(r-1) {
				return nil, fmt.Errorf("graph: fused bias for %q: vector/shape mismatch", s.node.name)
			}
			stages[k].Vec, stages[k].C = vec.Data(), vec.Size()
		}
		epi, data := tensor.Epilogue(stages), out.Data()
		n, h, w, c := Pixels(out)
		win.Spans(n, h, w, c, func(lo, hi int) { epi.Apply(data[lo:hi]) })
	}
	return out, nil
}

// finishStep hands step si's output to the observation hook and caches
// the final value (the hook's replacement, if any), which it returns.
func (p *Plan) finishStep(st *PlanState, si int, out *tensor.Tensor, hook Hook) *tensor.Tensor {
	s := &p.steps[si]
	if hook != nil && s.observe {
		if repl := hook(s.node, out); repl != nil {
			out = repl
		}
	}
	st.cache[s.node.id] = out
	return out
}
