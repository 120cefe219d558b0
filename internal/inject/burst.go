package inject

import (
	"fmt"
	"math/rand"
)

// Burst is the multi-word burst fault model: one upset corrupting the
// same bit of Length adjacent words in a single tensor — the multi-word
// counterpart of ConsecutiveBits (which spreads a run of bits inside one
// word). The run is word-boundary correct: the start element is clamped
// so the burst never leaves the struck tensor (like ConsecutiveBits
// clamps its bit run at the word boundary, the start distribution is
// slightly non-uniform at the tail), and a tensor smaller than the burst
// is struck whole. Burst works transiently on activations and
// persistently on the weight surface and the quant-param surface's
// adjacent parameter bytes.
type Burst struct {
	// Length is the number of adjacent words the burst spans.
	Length int
}

// Name implements Scenario.
func (b Burst) Name() string { return "burst" }

// Validate implements Scenario.
func (b Burst) Validate() error {
	if b.Length <= 0 {
		return fmt.Errorf("inject: burst length = %d", b.Length)
	}
	return nil
}

// AppendSites implements Scenario: the run's start draws like one
// SampleSite (the whole space, or the band's node with the bit in the
// band) and is then clamped to keep the run inside its node.
func (b Burst) AppendSites(buf []Site, space *FaultSpace, bits int, rng *rand.Rand, band *Band) []Site {
	node, elem, bit := space.draw(rng, bits, band)
	size := space.sizes[node]
	elem = max(min(elem, size-b.Length), 0)
	for i := 0; i < min(b.Length, size); i++ {
		buf = append(buf, Site{Node: space.nodes[node], Elem: elem + i, Bit: bit})
	}
	return buf
}

// Corrupt implements Scenario: each site of the run flips its bit.
func (b Burst) Corrupt(word uint64, bits int, s Site) (uint64, error) {
	return flipBit(word, bits, s)
}
