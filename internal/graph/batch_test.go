package graph

import (
	"errors"
	"testing"

	"ranger/internal/tensor"
)

func batchGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	in := g.MustAdd("x", &Placeholder{})
	d := g.MustAdd("triple", tripleOp{}, in)
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
