package graph

import (
	"fmt"

	"ranger/internal/tensor"
)

// Hook observes and optionally replaces a node's output during execution.
// Returning a non-nil tensor substitutes it for the node's output; this is
// the mechanism the fault injector uses to corrupt a single operator
// output, and the profiler uses (returning nil) to record value ranges.
type Hook func(node *Node, output *tensor.Tensor) *tensor.Tensor

// Feeds maps placeholder node names to their input tensors.
type Feeds map[string]*tensor.Tensor

// Executor runs graphs. The zero value is ready to use; set Hook to
// intercept node outputs.
type Executor struct {
	// Hook, if non-nil, is called after every node evaluation.
	Hook Hook
}

// Placeholder is the feed-input op: it has no inputs and is satisfied by
// the Feeds table at run time.
type Placeholder struct {
	Shape []int // expected shape with batch dim 0 meaning "any"
}

// Type implements Op.
func (p *Placeholder) Type() string { return "Placeholder" }

// Eval implements Op; placeholders are resolved by the executor, so direct
// evaluation is an error.
func (p *Placeholder) Eval([]*tensor.Tensor) (*tensor.Tensor, error) {
	return nil, fmt.Errorf("graph: placeholder evaluated without feed")
}

// Variable is a parameter op holding a mutable tensor (weights, biases).
type Variable struct {
	Value *tensor.Tensor
}

// Type implements Op.
func (v *Variable) Type() string { return "Variable" }

// Eval implements Op.
func (v *Variable) Eval([]*tensor.Tensor) (*tensor.Tensor, error) {
	if v.Value == nil {
		return nil, fmt.Errorf("graph: variable has no value")
	}
	return v.Value, nil
}

// Run evaluates the graph with the given feeds and returns the outputs of
// the requested fetch nodes. Only the ancestors of the fetches are
// evaluated. Node outputs are cached for the duration of the call.
func (e *Executor) Run(g *Graph, feeds Feeds, fetches ...string) ([]*tensor.Tensor, error) {
	needed, err := neededFor(g, fetches)
	if err != nil {
		return nil, err
	}
	cache, err := e.exec(g, feeds, needed)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(fetches))
	for i, f := range fetches {
		n := g.byName[f]
		outs[i] = cache[n.id]
	}
	return outs, nil
}

// RunAll evaluates every node and returns the full output cache indexed by
// node ID; the trainer uses this to run a backward pass.
func (e *Executor) RunAll(g *Graph, feeds Feeds) ([]*tensor.Tensor, error) {
	return e.exec(g, feeds, nil)
}

// exec is the shared evaluation path behind Run and RunAll: it validates
// feeds, then evaluates the graph's nodes in topological order (all of
// them when needed is nil), so hook behavior cannot drift between the
// two entry points.
func (e *Executor) exec(g *Graph, feeds Feeds, needed []bool) ([]*tensor.Tensor, error) {
	if err := validateFeeds(g, feeds, needed); err != nil {
		return nil, err
	}
	cache := make([]*tensor.Tensor, g.Len())
	for _, n := range g.nodes {
		if needed != nil && !needed[n.id] {
			continue
		}
		out, err := e.evalNode(n, feeds, cache)
		if err != nil {
			return nil, err
		}
		cache[n.id] = out
	}
	return cache, nil
}

// validateFeeds checks every supplied feed against its placeholder's
// declared shape before any kernel runs, returning a typed error
// (wrapping ErrFeedShape) instead of panicking deep inside a kernel on
// mis-shaped input. Placeholders with no declared shape accept anything;
// missing feeds surface later as ErrMissingFeed only if actually needed.
func validateFeeds(g *Graph, feeds Feeds, needed []bool) error {
	for _, n := range g.nodes {
		if needed != nil && !needed[n.id] {
			continue
		}
		p, ok := n.op.(*Placeholder)
		if !ok {
			continue
		}
		t, ok := feeds[n.name]
		if !ok || t == nil {
			continue
		}
		if err := p.CheckShape(t.Shape()); err != nil {
			return fmt.Errorf("feed %q: %w", n.name, err)
		}
	}
	return nil
}

func (e *Executor) evalNode(n *Node, feeds Feeds, cache []*tensor.Tensor) (*tensor.Tensor, error) {
	var out *tensor.Tensor
	switch op := n.op.(type) {
	case *Placeholder:
		t, ok := feeds[n.name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingFeed, n.name)
		}
		out = t
	default:
		ins := make([]*tensor.Tensor, len(n.inputs))
		for i, in := range n.inputs {
			ins[i] = cache[in.id]
			if ins[i] == nil {
				return nil, fmt.Errorf("graph: input %q of %q not evaluated", in.name, n.name)
			}
		}
		t, err := op.Eval(ins)
		if err != nil {
			return nil, fmt.Errorf("eval %q (%s): %w", n.name, n.op.Type(), err)
		}
		out = t
	}
	if e.Hook != nil {
		if repl := e.Hook(n, out); repl != nil {
			out = repl
		}
	}
	return out, nil
}

// neededFor marks the ancestors of the fetch nodes (the executed
// subgraph), shared by the per-call executor and the plan compiler.
func neededFor(g *Graph, fetches []string) ([]bool, error) {
	needed := make([]bool, g.Len())
	var stack []*Node
	for _, f := range fetches {
		n, ok := g.byName[f]
		if !ok {
			return nil, fmt.Errorf("%w: fetch %q", ErrUnknownNode, f)
		}
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if needed[n.id] {
			continue
		}
		needed[n.id] = true
		stack = append(stack, n.inputs...)
	}
	return needed, nil
}

// Backward computes gradients of the node named loss (which must evaluate
// to a scalar) with respect to every Variable node, returning a map from
// variable name to gradient. cache must come from RunAll on the same feeds.
func (e *Executor) Backward(g *Graph, cache []*tensor.Tensor, loss string) (map[string]*tensor.Tensor, error) {
	ln, ok := g.byName[loss]
	if !ok {
		return nil, fmt.Errorf("%w: loss %q", ErrUnknownNode, loss)
	}
	if cache[ln.id] == nil || cache[ln.id].Size() != 1 {
		return nil, fmt.Errorf("graph: loss %q is not an evaluated scalar", loss)
	}
	grads := make([]*tensor.Tensor, g.Len())
	grads[ln.id] = tensor.Scalar(1)
	// Reverse topological order: the append-only invariant makes node ID
	// order a valid topological order.
	for i := g.Len() - 1; i >= 0; i-- {
		n := g.nodes[i]
		gout := grads[n.id]
		if gout == nil || len(n.inputs) == 0 {
			continue
		}
		gop, ok := n.op.(GradOp)
		if !ok {
			return nil, fmt.Errorf("graph: op %q (%s) does not support gradients", n.name, n.op.Type())
		}
		ins := make([]*tensor.Tensor, len(n.inputs))
		for j, in := range n.inputs {
			ins[j] = cache[in.id]
		}
		gins, err := gop.Grad(ins, cache[n.id], gout)
		if err != nil {
			return nil, fmt.Errorf("grad %q (%s): %w", n.name, n.op.Type(), err)
		}
		if len(gins) != len(n.inputs) {
			return nil, fmt.Errorf("grad %q: %d gradients for %d inputs", n.name, len(gins), len(n.inputs))
		}
		for j, gin := range gins {
			if gin == nil {
				continue
			}
			in := n.inputs[j]
			if grads[in.id] == nil {
				grads[in.id] = gin.Clone()
			} else if err := grads[in.id].AxpyInPlace(1, gin); err != nil {
				return nil, fmt.Errorf("grad accumulate into %q: %w", in.name, err)
			}
		}
	}
	out := make(map[string]*tensor.Tensor)
	for _, n := range g.nodes {
		if _, ok := n.op.(*Variable); ok && grads[n.id] != nil {
			out[n.name] = grads[n.id]
		}
	}
	return out, nil
}

// Variables returns all Variable nodes in the graph in topological order.
func (g *Graph) Variables() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if _, ok := n.op.(*Variable); ok {
			out = append(out, n)
		}
	}
	return out
}
