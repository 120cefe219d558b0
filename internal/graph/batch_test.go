package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ranger/internal/tensor"
)

// scaleScratchOp is a ScratchOp test double: out = 3*x via recycled
// buffers, with allocation counting. Counters are atomic because the op
// instance is shared across RunBatch workers (like real stateless ops,
// its evaluation state lives entirely in the per-worker Scratch).
type scaleScratchOp struct {
	scratchCalls atomic.Int64
	allocs       atomic.Int64
}

func (o *scaleScratchOp) Type() string { return "ScaleScratch" }

func (o *scaleScratchOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0].Scale(3), nil
}

func (o *scaleScratchOp) EvalScratch(in []*tensor.Tensor, s *Scratch) (*tensor.Tensor, error) {
	o.scratchCalls.Add(1)
	before := len(s.bufs)
	out := s.Get(in[0].Shape()...)
	if len(s.bufs) > before {
		o.allocs.Add(1)
	}
	xd, od := in[0].Data(), out.Data()
	for i, v := range xd {
		od[i] = 3 * v
	}
	return out, nil
}

func batchGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	in := g.MustAdd("x", &Placeholder{})
	d := g.MustAdd("scale", &scaleScratchOp{}, in)
	g.MustAdd("sum", sumOp{}, d)
	return g
}

func batchFeeds(n int) []Feeds {
	feeds := make([]Feeds, n)
	for i := range feeds {
		x := tensor.New(4)
		x.Fill(float32(i + 1))
		feeds[i] = Feeds{"x": x}
	}
	return feeds
}

func TestRunBatchMatchesSequential(t *testing.T) {
	g := batchGraph(t)
	feeds := batchFeeds(17)
	var seq Executor
	want := make([]float32, len(feeds))
	for i, f := range feeds {
		outs, err := seq.Run(g, f, "sum")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outs[0].Data()[0]
	}
	for _, workers := range []int{1, 2, 4, 9} {
		outs, err := RunBatch(g, feeds, workers, "sum")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(outs) != len(feeds) {
			t.Fatalf("workers=%d: %d results", workers, len(outs))
		}
		for i := range outs {
			if got := outs[i][0].Data()[0]; got != want[i] {
				t.Fatalf("workers=%d feed %d: got %v, want %v", workers, i, got, want[i])
			}
		}
	}
}

// TestRunBatchPropagatesLowestError gives two feeds different errors
// and checks that the lower-indexed feed's error comes back at every
// worker count, however the feeds shard.
func TestRunBatchPropagatesLowestError(t *testing.T) {
	g := New()
	g.MustAdd("x", &Placeholder{Shape: []int{0, 4}})
	feeds := make([]Feeds, 6)
	for i := range feeds {
		feeds[i] = Feeds{"x": tensor.New(1, 4)}
	}
	feeds[2] = Feeds{}                      // missing feed for x
	feeds[4] = Feeds{"x": tensor.New(1, 5)} // contradicts the declared shape
	for _, workers := range []int{1, 2, 3, 9} {
		_, err := RunBatch(g, feeds, workers, "x")
		if !errors.Is(err, ErrMissingFeed) || errors.Is(err, ErrFeedShape) {
			t.Fatalf("workers=%d: err = %v, want feed 2's ErrMissingFeed", workers, err)
		}
	}
}

func TestArenaReusesBuffersAcrossRuns(t *testing.T) {
	g := batchGraph(t)
	node, _ := g.Node("scale")
	op := node.Op().(*scaleScratchOp)
	e := &Executor{Arena: NewArena()}
	feeds := batchFeeds(1)[0]
	const runs = 5
	for i := 0; i < runs; i++ {
		outs, err := e.Run(g, feeds, "sum")
		if err != nil {
			t.Fatal(err)
		}
		if got := outs[0].Data()[0]; got != 12 {
			t.Fatalf("run %d: sum = %v, want 12", i, got)
		}
	}
	if got := op.scratchCalls.Load(); got != runs {
		t.Fatalf("scratch path used %d times, want %d", got, runs)
	}
	if got := op.allocs.Load(); got != 1 {
		t.Fatalf("allocated %d buffers over %d runs, want 1", got, runs)
	}
}

func TestArenaOutputsTransient(t *testing.T) {
	// Outputs of an arena-backed executor are overwritten by the next Run;
	// this documents (and pins) the intended lifetime contract.
	g := New()
	in := g.MustAdd("x", &Placeholder{})
	g.MustAdd("scale", &scaleScratchOp{}, in)
	e := &Executor{Arena: NewArena()}
	x1 := tensor.New(2)
	x1.Fill(1)
	out1, err := e.Run(g, Feeds{"x": x1}, "scale")
	if err != nil {
		t.Fatal(err)
	}
	first := out1[0]
	if first.Data()[0] != 3 {
		t.Fatalf("first run = %v", first.Data()[0])
	}
	x2 := tensor.New(2)
	x2.Fill(10)
	if _, err := e.Run(g, Feeds{"x": x2}, "scale"); err != nil {
		t.Fatal(err)
	}
	if first.Data()[0] != 30 {
		t.Fatalf("retained output = %v; arena buffers must be recycled (got a fresh buffer?)", first.Data()[0])
	}
}

func TestScratchGetShapes(t *testing.T) {
	s := &Scratch{}
	a := s.Get(2, 3)
	b := s.Get(6)
	if a.Size() != 6 || b.Size() != 6 {
		t.Fatal("sizes wrong")
	}
	if &a.Data()[0] == &b.Data()[0] {
		t.Fatal("distinct Gets in one evaluation must not alias")
	}
	s.reset()
	c := s.Get(3, 2)
	if &c.Data()[0] != &a.Data()[0] {
		t.Fatal("post-reset Get must recycle the first buffer")
	}
	if fmt.Sprintf("%v", c.Shape()) != "[3 2]" {
		t.Fatalf("shape = %v", c.Shape())
	}
}
