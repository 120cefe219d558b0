package graph

import (
	"ranger/internal/tensor"
)

// ScratchOp is an optional Op extension for operators that can evaluate
// into reusable buffers. When an Executor has an Arena, evalNode routes
// eligible nodes through EvalScratch instead of Eval, eliminating the
// fresh output (and scratch) allocation per node per call that dominates
// steady-state inference cost.
type ScratchOp interface {
	Op
	// EvalScratch computes the op's output like Eval, drawing the output
	// tensor and any intermediates from s. Buffers returned by s.Get hold
	// arbitrary stale data and must be fully overwritten.
	EvalScratch(inputs []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error)
}

// Scratch hands out reusable buffers for one node's evaluation. Each call
// to Get during a single evaluation returns a distinct buffer; across
// evaluations of the same node the buffers are recycled in call order, so
// a node asking for the same shapes allocates only on its first run.
type Scratch struct {
	bufs [][]float32
	next int
}

// Get returns a tensor of the given shape backed by a recycled buffer
// (allocating if none fits). Contents are unspecified; callers must
// overwrite every element. The tensor is only valid until the same node
// is evaluated again.
func (s *Scratch) Get(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var buf []float32
	if s.next < len(s.bufs) && cap(s.bufs[s.next]) >= n {
		buf = s.bufs[s.next][:n]
	} else {
		buf = make([]float32, n)
		if s.next < len(s.bufs) {
			s.bufs[s.next] = buf
		} else {
			s.bufs = append(s.bufs, buf)
		}
	}
	s.next++
	t, err := tensor.FromSlice(buf, shape...)
	if err != nil {
		// Unreachable: len(buf) is the shape's element count by construction.
		panic(err)
	}
	return t
}

// reset rewinds the buffer cursor for the node's next evaluation.
func (s *Scratch) reset() { s.next = 0 }

// Arena owns the per-node Scratch pools of one Executor. An Arena makes
// an executor's outputs transient: tensors fetched from Run are only
// valid until the executor's next Run/RunAll call (Clone what must
// survive). Arenas are not safe for concurrent use — give each worker
// its own executor and arena (as train.evalBatches does).
type Arena struct {
	scratches []*Scratch
}

// NewArena returns an empty arena; per-node pools grow on first use.
func NewArena() *Arena { return &Arena{} }

// scratch returns node id's pool, growing the table as needed.
func (a *Arena) scratch(id int) *Scratch {
	for id >= len(a.scratches) {
		a.scratches = append(a.scratches, nil)
	}
	if a.scratches[id] == nil {
		a.scratches[id] = &Scratch{}
	}
	return a.scratches[id]
}
