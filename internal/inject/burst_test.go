package inject

import (
	"math/rand"
	"testing"

	"ranger/internal/fixpoint"
)

func burstSpace(sizes ...int) *FaultSpace {
	fs := &FaultSpace{}
	for i, sz := range sizes {
		fs.nodes = append(fs.nodes, string(rune('a'+i)))
		fs.sizes = append(fs.sizes, sz)
		fs.total += int64(sz)
	}
	return fs
}

// Burst runs must stay inside one tensor: same node, same bit,
// consecutive elements, never wrapping across the element or tensor
// boundary.
func TestBurstStaysInsideTensor(t *testing.T) {
	fs := burstSpace(4, 10, 7)
	b := Burst{Length: 3}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(&splitmixSource{state: uint64(seed)})
		sites := b.AppendSites(nil, fs, fixpoint.Q32.Bits(), rng, nil)
		if len(sites) != 3 {
			t.Fatalf("seed %d: %d sites, want 3", seed, len(sites))
		}
		node, bit := sites[0].Node, sites[0].Bit
		ni := -1
		for i, n := range fs.nodes {
			if n == node {
				ni = i
			}
		}
		if ni < 0 {
			t.Fatalf("seed %d: unknown node %q", seed, node)
		}
		for k, s := range sites {
			if s.Node != node || s.Bit != bit {
				t.Fatalf("seed %d: burst spans nodes/bits: %+v", seed, sites)
			}
			if s.Elem != sites[0].Elem+k {
				t.Fatalf("seed %d: non-consecutive elements: %+v", seed, sites)
			}
			if s.Elem < 0 || s.Elem >= fs.sizes[ni] {
				t.Fatalf("seed %d: site %+v outside node of %d elements", seed, s, fs.sizes[ni])
			}
			if s.Bit < 0 || s.Bit >= fixpoint.Q32.Bits() {
				t.Fatalf("seed %d: bit %d outside format", seed, s.Bit)
			}
		}
	}
}

// A burst longer than the struck tensor truncates to the tensor instead
// of wrapping into a neighbor.
func TestBurstTruncatesToSmallTensor(t *testing.T) {
	fs := burstSpace(2)
	b := Burst{Length: 5}
	rng := rand.New(&splitmixSource{state: 9})
	sites := b.AppendSites(nil, fs, fixpoint.Q32.Bits(), rng, nil)
	if len(sites) != 2 {
		t.Fatalf("%d sites, want 2 (truncated to node size)", len(sites))
	}
	if sites[0].Elem != 0 || sites[1].Elem != 1 {
		t.Fatalf("truncated burst should cover the whole tensor: %+v", sites)
	}
}

// Stratified burst sampling confines the run to the stratum's node and
// the shared bit to the stratum's band.
func TestBurstStratumConfined(t *testing.T) {
	fs := burstSpace(4, 10, 7)
	b := Burst{Length: 4}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(&splitmixSource{state: uint64(seed)})
		sites := b.AppendSites(nil, fs, fixpoint.Q32.Bits(), rng, &Band{Node: 1, BitLo: 20, BitHi: 27})
		if len(sites) != 4 {
			t.Fatalf("seed %d: %d sites", seed, len(sites))
		}
		for _, s := range sites {
			if s.Node != "b" {
				t.Fatalf("seed %d: site left stratum node: %+v", seed, s)
			}
			if s.Bit < 20 || s.Bit > 27 {
				t.Fatalf("seed %d: bit %d outside band [20,27]", seed, s.Bit)
			}
			if s.Elem < 0 || s.Elem >= 10 {
				t.Fatalf("seed %d: elem %d outside node", seed, s.Elem)
			}
		}
	}
}

// On the int8 backend a burst draws bits of the 8-bit word and flips
// them in the stored bytes.
func TestBurstInt8BoundsAndCorrupt(t *testing.T) {
	fs := burstSpace(3, 6)
	b := Burst{Length: 2}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(&splitmixSource{state: uint64(seed)})
		sites := b.AppendSites(nil, fs, 8, rng, nil)
		if len(sites) != 2 {
			t.Fatalf("seed %d: %d sites", seed, len(sites))
		}
		for _, s := range sites {
			if s.Bit < 0 || s.Bit >= 8 {
				t.Fatalf("seed %d: int8 bit %d", seed, s.Bit)
			}
		}
	}
	q, err := corruptInt8(b, 0, Site{Bit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if q != -128 {
		t.Fatalf("flipping bit 7 of 0 = %d, want -128", q)
	}
	if _, err := corruptInt8(b, 0, Site{Bit: 8}); err == nil {
		t.Fatal("bit 8 should be out of range for int8")
	}
}

func TestBurstRegistryAndValidate(t *testing.T) {
	s, err := NewScenario("burst", 3)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := s.(Burst); !ok || b.Length != 3 {
		t.Fatalf("NewScenario(burst, 3) = %#v", s)
	}
	si, err := NewScenario("burst-int8", 2)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := si.(Burst); !ok || b.Length != 2 {
		t.Fatalf("NewScenario(burst-int8, 2) = %#v", si)
	}
	if err := (Burst{Length: 0}).Validate(); err == nil {
		t.Fatal("zero-length burst should not validate")
	}
	if err := (Burst{Length: -1}).Validate(); err == nil {
		t.Fatal("negative-length burst should not validate")
	}
}

// A burst campaign on the activation surface exercises the multi-site
// hook path end to end and stays deterministic.
func TestBurstCampaignDeterministic(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	run := func(workers int) Outcome {
		c := &Campaign{Model: m, Scenario: Burst{Length: 4}, Trials: 20, Seed: 11, Workers: workers}
		out, err := c.Run(t.Context(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(4)
	if a.Top1SDC != b.Top1SDC || a.Top5SDC != b.Top5SDC || a.Trials != b.Trials {
		t.Fatalf("burst campaign differs across workers: %+v vs %+v", a, b)
	}
}
