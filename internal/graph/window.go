package graph

import (
	"math"

	"ranger/internal/tensor"
)

// This file holds the pixel windows behind window replay (RunCone). A
// fault flips one element, which differs from the clean pass in one
// pixel; a k×k convolution spreads it to a k×k patch, a pooling window
// to its pooled pixels, an elementwise op not at all. Cone replay
// tracks each differing value's window and has every window-capable
// step recompute only the output pixels its differing inputs reach.

// Window is the box of pixels rows [Y0,Y1) × columns [X0,X1) of a value,
// across every batch image and channel. The pixels of an NHWC (rank-4)
// value are its rows and columns; a value of any other rank is a single
// pixel, so its only non-empty window is the whole value. A window with
// no pixel is empty.
type Window struct {
	Y0, Y1, X0, X1 int
}

// everywhere is the window covering every pixel of any value; clip
// bounds it to a value's dimensions.
var everywhere = Window{0, math.MaxInt32, 0, math.MaxInt32}

// Empty reports whether the window holds no pixel.
func (w Window) Empty() bool { return w.Y0 >= w.Y1 || w.X0 >= w.X1 }

// Union returns the smallest window holding both w and v.
func (w Window) Union(v Window) Window {
	switch {
	case v.Empty():
		return w
	case w.Empty():
		return v
	}
	return Window{min(w.Y0, v.Y0), max(w.Y1, v.Y1), min(w.X0, v.X0), max(w.X1, v.X1)}
}

// clip bounds the window to a value of h rows and w columns.
func (w Window) clip(h, wd int) Window {
	return Window{max(w.Y0, 0), min(w.Y1, h), max(w.X0, 0), min(w.X1, wd)}
}

// PixelDims returns the batch, rows, columns and channels of a value of
// the given shape: the shape itself for NHWC, and one pixel holding
// every element for any other rank.
func PixelDims(shape []int) (n, h, w, c int) {
	if len(shape) == 4 {
		return shape[0], shape[1], shape[2], shape[3]
	}
	c = 1
	for _, d := range shape {
		c *= d
	}
	return 1, 1, 1, c
}

// Whole returns the window of every pixel of a value of the given shape.
func Whole(shape []int) Window {
	_, h, w, _ := PixelDims(shape)
	return Window{0, h, 0, w}
}

// Pixels is PixelDims of a tensor's (or quantized tensor's) shape,
// read without copying it.
func Pixels(t interface {
	Rank() int
	Dim(i int) int
	Size() int
}) (n, h, w, c int) {
	if t.Rank() == 4 {
		return t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	}
	return 1, 1, 1, t.Size()
}

// Spans calls f(lo, hi) for the flat element range of each pixel row of
// the window in a value of dims n×h×w×c, in ascending order. Every
// range starts on a pixel boundary, so a channel-indexed computation
// (a StageBias vector, say) indexes it exactly as over the whole value.
func (w Window) Spans(n, h, wd, c int, f func(lo, hi int)) {
	for b := 0; b < n; b++ {
		for y := w.Y0; y < w.Y1; y++ {
			row := (b*h + y) * wd
			f((row+w.X0)*c, (row+w.X1)*c)
		}
	}
}

// ConvWindow maps a window of input pixels through a convolution or
// pooling geometry: it returns the output pixels (of an oh×ow output)
// whose receptive field holds any of them.
func ConvWindow(g tensor.ConvGeom, in Window, oh, ow int) Window {
	if in.Empty() {
		return Window{}
	}
	y0, y1 := convRange(in.Y0, in.Y1, g.KH, g.SH, g.PadH, oh)
	x0, x1 := convRange(in.X0, in.X1, g.KW, g.SW, g.PadW, ow)
	return Window{y0, y1, x0, x1}
}

// convRange returns the output positions [lo, hi) of one axis whose
// taps oy*s-pad .. oy*s-pad+k-1 meet input positions [i0, i1).
func convRange(i0, i1, k, s, pad, n int) (lo, hi int) {
	lo = max(0, ceilDiv(i0+pad-k+1, s))
	hi = min(n, (i1-1+pad)/s+1)
	return lo, hi
}

// ceilDiv is ⌈a/b⌉ for b > 0 and any sign of a.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return -(-a / b)
	}
	return (a + b - 1) / b
}

// Strikes names the plan-step output elements a trial's hook corrupts.
// RunCone starts at the earliest struck step and seeds each struck
// step's window with the pixels of its struck elements. A worker keeps
// one Strikes and Resets it per trial, so trials allocate nothing.
type Strikes struct {
	steps bitset
	at    []strikeAt
}

type strikeAt struct{ step, elem int }

// NewStrikes returns an empty strike set for a plan of steps steps.
func NewStrikes(steps int) *Strikes { return &Strikes{steps: newBitset(steps)} }

// Add marks flat element elem of step's output as struck. A negative
// elem marks the step alone: a step whose kernel or parameters the
// state overrides, which cone replay recomputes in full anyway.
func (s *Strikes) Add(step, elem int) {
	s.steps.set(step)
	if elem >= 0 {
		s.at = append(s.at, strikeAt{step, elem})
	}
}

// Reset empties the set, keeping its storage.
func (s *Strikes) Reset() {
	clear(s.steps)
	s.at = s.at[:0]
}

// has reports whether step si is struck; a nil set strikes nothing.
func (s *Strikes) has(si int) bool { return s != nil && s.steps.has(si) }

// span returns the first and last struck step below n, or (n, n).
func (s *Strikes) span(n int) (first, last int) {
	if s == nil {
		return n, n
	}
	return s.steps.span(n)
}

// pixels returns the window of step si's struck elements in a value of
// dims (n, h, w, c); an element outside the value strikes everywhere. A
// nil set strikes nothing.
func (s *Strikes) pixels(si, n, h, w, c int) Window {
	var win Window
	if s == nil {
		return win
	}
	for _, a := range s.at {
		if a.step != si {
			continue
		}
		if a.elem >= n*h*w*c {
			return everywhere
		}
		p := a.elem / c
		y, x := p/w%h, p%w
		win = win.Union(Window{y, y + 1, x, x + 1})
	}
	return win
}

// coneState is cone replay's record of which pixels of each value
// differ from the checkpoint's. It lives in the worker state, so
// replays after the first allocate nothing.
type coneState struct {
	win []Window // by node id: the cached value's differing pixels
	ids []int    // node ids given a non-empty window this replay
}

// reset clears the previous replay's windows for a graph of nodes nodes.
func (c *coneState) reset(nodes int) {
	if len(c.win) < nodes {
		c.win = make([]Window, nodes)
	}
	for _, id := range c.ids {
		c.win[id] = Window{}
	}
	c.ids = c.ids[:0]
}

// set records node id's differing window.
func (c *coneState) set(id int, w Window) {
	if w.Empty() {
		c.win[id] = Window{}
		return
	}
	if c.win[id].Empty() {
		c.ids = append(c.ids, id)
	}
	c.win[id] = w
}

// differs reports whether node id's value differs from the checkpoint's.
func (c *coneState) differs(id int) bool { return !c.win[id].Empty() }

// outWindow returns the window of a step's output that its differing
// inputs reach: the union of each differing input's window mapped
// through op, or everywhere when op is nil or cannot map it. Negative
// ids are constants.
func (c *coneState) outWindow(op WindowOp, inIDs []int, out []int) Window {
	var win Window
	for i, id := range inIDs {
		if id < 0 || c.win[id].Empty() {
			continue
		}
		if op == nil || out == nil {
			return everywhere
		}
		w, ok := op.OutWindow(i, c.win[id], out)
		if !ok {
			return everywhere
		}
		win = win.Union(w)
	}
	return win
}

// alive drops the windows of values no step after si reads and reports
// whether any remain.
func (c *coneState) alive(lastUse []int, si int) bool {
	keep := c.ids[:0]
	for _, id := range c.ids {
		if c.win[id].Empty() {
			continue
		}
		if lastUse[id] <= si {
			c.win[id] = Window{}
			continue
		}
		keep = append(keep, id)
	}
	c.ids = keep
	return len(keep) > 0
}

// differing returns the window of the pixels in win (a window of a value
// of dims n×h×w×c) where a and b differ, as judged by same on each
// pixel-row run: the box around every differing pixel.
func differing[T any](a, b []T, n, h, w, c int, win Window, same func(x, y []T) bool) Window {
	win = win.clip(h, w)
	var out Window
	if win.Empty() {
		return out
	}
	for bi := 0; bi < n; bi++ {
		for y := win.Y0; y < win.Y1; y++ {
			row := (bi*h + y) * w
			lo, hi := (row+win.X0)*c, (row+win.X1)*c
			if same(a[lo:hi], b[lo:hi]) {
				continue
			}
			for x := win.X0; x < win.X1; x++ {
				p := (row + x) * c
				if !same(a[p:p+c], b[p:p+c]) {
					out = out.Union(Window{y, y + 1, x, x + 1})
				}
			}
		}
	}
	return out
}

// sameF32 reports bit-for-bit equality of two equally long float32 runs.
func sameF32(a, b []float32) bool {
	b = b[:len(a)]
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameI8 reports equality of two equally long int8 runs.
func sameI8(a, b []int8) bool {
	b = b[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
