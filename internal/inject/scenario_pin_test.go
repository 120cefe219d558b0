package inject

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ranger/internal/fixpoint"
)

// Literal pins of every registered scenario: the sites it draws for fixed
// seeds on a fixed fault space, uniformly and confined to a band, and the
// word each site's corruption leaves behind — at the word widths the
// backends run (8 for int8, 16 and 32 for the Q16 and Q32 datapaths).
// Any change to a scenario's stream consumption or word arithmetic shows
// up here as drift.

// pinSpace is the fault space every pin samples: three nodes, the middle
// one smaller than a burst of pinFaults+1 words.
func pinSpace() *FaultSpace { return burstSpace(5, 3, 9) }

// pinFaults is the fault multiplicity (burst length) of every pinned
// scenario, so multi-site draws are covered.
const pinFaults = 2

// pinFormats are the fixed-point datapaths of the pinned word widths.
var pinFormats = map[int]fixpoint.Format{8: {IntBits: 3, FracBits: 4}, 16: fixpoint.Q16, 32: fixpoint.Q32}

// pinClean is the clean word every site corrupts. Its low eight bits are
// clear at widths 16 and 32, so each single-bit corruption of it decodes
// to a float32 exactly.
var pinClean = map[int]uint64{8: 0x5A, 16: 0x5A00, 32: 0x5A00}

// pinBand confines the primary site to the middle node and the upper
// half of the word.
func pinBand(width int) *Band {
	return &Band{Node: 1, BitLo: width / 2, BitHi: width - 1}
}

// pinLegacyNames are the registry names kept for stored job specs; they
// only ever ran on the int8 backend, so they are pinned at width 8.
var pinLegacyNames = map[string]bool{"bitflip-int8": true, "stuckat-int8": true, "burst-int8": true}

// pinDraw draws one execution's sites at the given word width.
func pinDraw(scen Scenario, width int, rng *rand.Rand, band *Band) []Site {
	return scen.AppendSites(nil, pinSpace(), width, rng, band)
}

// pinCorrupt corrupts one word at the given width and returns the word
// as the datapath stores it back. A 32-bit word passes through a float32
// on the fp32 backend, which keeps 24 significant bits.
func pinCorrupt(scen Scenario, width int, word uint64, s Site) (uint64, error) {
	f := pinFormats[width]
	w, err := scen.Corrupt(word, width, s)
	return f.Encode(f.Decode(w)), err
}

// scenarioPins maps name/width/mode/seed to the drawn sites, each
// rendered node[elem].bit, then +payload when set, then =corrupted word.
var scenarioPins = map[string]string{
	"bitflip/8/uniform/1":      "a[4].6=0x1a c[0].3=0x52",
	"bitflip/8/uniform/2":      "c[0].7=0xda c[8].4=0x4a",
	"bitflip/8/band/1":         "b[2].6=0x1a c[0].3=0x52",
	"bitflip/8/band/2":         "b[2].7=0xda c[8].4=0x4a",
	"bitflip/16/uniform/1":     "a[4].14=0x1a00 c[0].3=0x5a08",
	"bitflip/16/uniform/2":     "c[0].7=0x5a80 c[8].4=0x5a10",
	"bitflip/16/band/1":        "b[2].14=0x1a00 c[0].3=0x5a08",
	"bitflip/16/band/2":        "b[2].15=0xda00 c[8].4=0x5a10",
	"bitflip/32/uniform/1":     "a[4].30=0x40005a00 c[0].19=0x85a00",
	"bitflip/32/uniform/2":     "c[0].23=0x805a00 c[8].4=0x5a10",
	"bitflip/32/band/1":        "b[2].30=0x40005a00 c[0].19=0x85a00",
	"bitflip/32/band/2":        "b[2].23=0x805a00 c[8].4=0x5a10",
	"bitflip-int8/8/uniform/1": "a[4].6=0x1a c[0].3=0x52",
	"bitflip-int8/8/uniform/2": "c[0].7=0xda c[8].4=0x4a",
	"bitflip-int8/8/band/1":    "b[2].6=0x1a c[0].3=0x52",
	"bitflip-int8/8/band/2":    "b[2].7=0xda c[8].4=0x4a",
	"burst/8/uniform/1":        "a[3].6=0x1a a[4].6=0x1a",
	"burst/8/uniform/2":        "c[0].7=0xda c[1].7=0xda",
	"burst/8/band/1":           "b[1].6=0x1a b[2].6=0x1a",
	"burst/8/band/2":           "b[1].7=0xda b[2].7=0xda",
	"burst/16/uniform/1":       "a[3].14=0x1a00 a[4].14=0x1a00",
	"burst/16/uniform/2":       "c[0].7=0x5a80 c[1].7=0x5a80",
	"burst/16/band/1":          "b[1].14=0x1a00 b[2].14=0x1a00",
	"burst/16/band/2":          "b[1].15=0xda00 b[2].15=0xda00",
	"burst/32/uniform/1":       "a[3].30=0x40005a00 a[4].30=0x40005a00",
	"burst/32/uniform/2":       "c[0].23=0x805a00 c[1].23=0x805a00",
	"burst/32/band/1":          "b[1].30=0x40005a00 b[2].30=0x40005a00",
	"burst/32/band/2":          "b[1].23=0x805a00 b[2].23=0x805a00",
	"burst-int8/8/uniform/1":   "a[3].6=0x1a a[4].6=0x1a",
	"burst-int8/8/uniform/2":   "c[0].7=0xda c[1].7=0xda",
	"burst-int8/8/band/1":      "b[1].6=0x1a b[2].6=0x1a",
	"burst-int8/8/band/2":      "b[1].7=0xda b[2].7=0xda",
	"consecutive/8/uniform/1":  "a[4].6=0x1a a[4].7=0xda",
	"consecutive/8/uniform/2":  "c[0].4=0x4a c[0].5=0x7a",
	"consecutive/8/band/1":     "b[2].6=0x1a b[2].7=0xda",
	"consecutive/8/band/2":     "b[2].4=0x4a b[2].5=0x7a",
	"consecutive/16/uniform/1": "a[4].14=0x1a00 a[4].15=0xda00",
	"consecutive/16/uniform/2": "c[0].9=0x5800 c[0].10=0x5e00",
	"consecutive/16/band/1":    "b[2].14=0x1a00 b[2].15=0xda00",
	"consecutive/16/band/2":    "b[2].12=0x4a00 b[2].13=0x7a00",
	"consecutive/32/uniform/1": "a[4].10=0x5e00 a[4].11=0x5200",
	"consecutive/32/uniform/2": "c[0].20=0x105a00 c[0].21=0x205a00",
	"consecutive/32/band/1":    "b[2].30=0x40005a00 b[2].31=0x80005a00",
	"consecutive/32/band/2":    "b[2].25=0x2005a00 b[2].26=0x4005a00",
	"randomvalue/8/uniform/1":  "a[4].6+f08d4af8eb87802=0x2 b[1].1+e0241696054e26a=0x6a",
	"randomvalue/8/uniform/2":  "c[0].7+3d7010ae64b9b503=0x3 a[4].0+4d7dedfad75eebaa=0xaa",
	"randomvalue/8/band/1":     "b[2].6+f08d4af8eb87802=0x2 b[1].1+e0241696054e26a=0x6a",
	"randomvalue/8/band/2":     "b[2].7+3d7010ae64b9b503=0x3 a[4].0+4d7dedfad75eebaa=0xaa",
	"randomvalue/16/uniform/1": "a[4].14+f08d4af8eb87802=0x7802 b[1].9+e0241696054e26a=0xe26a",
	"randomvalue/16/uniform/2": "c[0].7+3d7010ae64b9b503=0xb503 a[4].0+4d7dedfad75eebaa=0xebaa",
	"randomvalue/16/band/1":    "b[2].14+f08d4af8eb87802=0x7802 b[1].9+e0241696054e26a=0xe26a",
	"randomvalue/16/band/2":    "b[2].15+3d7010ae64b9b503=0xb503 a[4].0+4d7dedfad75eebaa=0xebaa",
	"randomvalue/32/uniform/1": "a[4].30+f08d4af8eb87802=0x8eb87800 b[1].25+e0241696054e26a=0x6054e280",
	"randomvalue/32/uniform/2": "c[0].23+3d7010ae64b9b503=0x64b9b500 a[4].16+4d7dedfad75eebaa=0xd75eebc0",
	"randomvalue/32/band/1":    "b[2].30+f08d4af8eb87802=0x8eb87800 b[1].25+e0241696054e26a=0x6054e280",
	"randomvalue/32/band/2":    "b[2].23+3d7010ae64b9b503=0x64b9b500 a[4].16+4d7dedfad75eebaa=0xd75eebc0",
	"stuckat-int8/8/uniform/1": "a[4].6=0x5a c[0].3=0x5a",
	"stuckat-int8/8/uniform/2": "c[0].7=0xda c[8].4=0x5a",
	"stuckat-int8/8/band/1":    "b[2].6=0x5a c[0].3=0x5a",
	"stuckat-int8/8/band/2":    "b[2].7=0xda c[8].4=0x5a",
	"stuckat0/8/uniform/1":     "a[4].6=0x1a c[0].3=0x52",
	"stuckat0/8/uniform/2":     "c[0].7=0x5a c[8].4=0x4a",
	"stuckat0/8/band/1":        "b[2].6=0x1a c[0].3=0x52",
	"stuckat0/8/band/2":        "b[2].7=0x5a c[8].4=0x4a",
	"stuckat0/16/uniform/1":    "a[4].14=0x1a00 c[0].3=0x5a00",
	"stuckat0/16/uniform/2":    "c[0].7=0x5a00 c[8].4=0x5a00",
	"stuckat0/16/band/1":       "b[2].14=0x1a00 c[0].3=0x5a00",
	"stuckat0/16/band/2":       "b[2].15=0x5a00 c[8].4=0x5a00",
	"stuckat0/32/uniform/1":    "a[4].30=0x5a00 c[0].19=0x5a00",
	"stuckat0/32/uniform/2":    "c[0].23=0x5a00 c[8].4=0x5a00",
	"stuckat0/32/band/1":       "b[2].30=0x5a00 c[0].19=0x5a00",
	"stuckat0/32/band/2":       "b[2].23=0x5a00 c[8].4=0x5a00",
	"stuckat1/8/uniform/1":     "a[4].6=0x5a c[0].3=0x5a",
	"stuckat1/8/uniform/2":     "c[0].7=0xda c[8].4=0x5a",
	"stuckat1/8/band/1":        "b[2].6=0x5a c[0].3=0x5a",
	"stuckat1/8/band/2":        "b[2].7=0xda c[8].4=0x5a",
	"stuckat1/16/uniform/1":    "a[4].14=0x5a00 c[0].3=0x5a08",
	"stuckat1/16/uniform/2":    "c[0].7=0x5a80 c[8].4=0x5a10",
	"stuckat1/16/band/1":       "b[2].14=0x5a00 c[0].3=0x5a08",
	"stuckat1/16/band/2":       "b[2].15=0xda00 c[8].4=0x5a10",
	"stuckat1/32/uniform/1":    "a[4].30=0x40005a00 c[0].19=0x85a00",
	"stuckat1/32/uniform/2":    "c[0].23=0x805a00 c[8].4=0x5a10",
	"stuckat1/32/band/1":       "b[2].30=0x40005a00 c[0].19=0x85a00",
	"stuckat1/32/band/2":       "b[2].23=0x805a00 c[8].4=0x5a10",
}

func TestScenarioSitesAndWordsPinned(t *testing.T) {
	var missing []string
	for _, name := range ScenarioNames() {
		scen, err := NewScenario(name, pinFaults)
		if err != nil {
			t.Fatal(err)
		}
		widths := []int{8, 16, 32}
		if pinLegacyNames[name] {
			widths = widths[:1]
		}
		for _, width := range widths {
			for _, mode := range []string{"uniform", "band"} {
				for seed := int64(1); seed <= 2; seed++ {
					var band *Band
					if mode == "band" {
						band = pinBand(width)
					}
					rng := rand.New(&splitmixSource{})
					rng.Seed(trialSeed(seed, 0, 0))
					var b strings.Builder
					for i, s := range pinDraw(scen, width, rng, band) {
						w, err := pinCorrupt(scen, width, pinClean[width], s)
						if err != nil {
							t.Fatalf("%s/%d: corrupt %+v: %v", name, width, s, err)
						}
						if i > 0 {
							b.WriteByte(' ')
						}
						fmt.Fprintf(&b, "%s[%d].%d", s.Node, s.Elem, s.Bit)
						if s.Payload != 0 {
							fmt.Fprintf(&b, "+%x", s.Payload)
						}
						fmt.Fprintf(&b, "=%#x", w)
					}
					key := fmt.Sprintf("%s/%d/%s/%d", name, width, mode, seed)
					want, ok := scenarioPins[key]
					if !ok {
						missing = append(missing, fmt.Sprintf("%q: %q,", key, b.String()))
						continue
					}
					if got := b.String(); got != want {
						t.Errorf("%s drifted:\n got %s\nwant %s", key, got, want)
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Fatalf("no pin for:\n%s", strings.Join(missing, "\n"))
	}
}

// scenarioOutcomePins are short lenet campaigns (30 trials on each of two
// inputs, seed 11) under the scenarios the zoo goldens do not cover, with
// the number of trials whose fetch came back bit-identical.
var scenarioOutcomePins = map[string]struct {
	out    Outcome
	masked int
}{
	"consecutive/fp32":  {Outcome{Trials: 60, Top1SDC: 15, Top5SDC: 2}, 26},
	"randomvalue/fp32":  {Outcome{Trials: 60, Top1SDC: 24, Top5SDC: 7}, 23},
	"stuckat0/fp32":     {Outcome{Trials: 60, Top1SDC: 1, Top5SDC: 0}, 47},
	"stuckat1/fp32":     {Outcome{Trials: 60, Top1SDC: 14, Top5SDC: 6}, 31},
	"burst/fp32":        {Outcome{Trials: 60, Top1SDC: 17, Top5SDC: 6}, 10},
	"stuckat-int8/int8": {Outcome{Trials: 60, Top1SDC: 0, Top5SDC: 0}, 41},
	"burst-int8/int8":   {Outcome{Trials: 60, Top1SDC: 2, Top5SDC: 0}, 16},
}

func TestScenarioOutcomesPinned(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	calib := lenetCalibration(t, m, feeds)
	cases := []struct {
		name   string
		faults int
		int8   bool
	}{
		{"consecutive", 2, false},
		{"randomvalue", 1, false},
		{"stuckat0", 1, false},
		{"stuckat1", 1, false},
		{"burst", 4, false},
		{"stuckat-int8", 1, true},
		{"burst-int8", 4, true},
	}
	var missing []string
	for _, tc := range cases {
		scen, err := NewScenario(tc.name, tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		masked := 0
		c := &Campaign{Model: m, Scenario: scen, Trials: 30, Seed: 11, Workers: 2,
			OnTrial: func(tr TrialResult) {
				if tr.Masked {
					masked++
				}
			}}
		key := tc.name + "/fp32"
		if tc.int8 {
			c.Calibration, key = calib, tc.name+"/int8"
		}
		out, err := c.Run(context.Background(), feeds)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		want, ok := scenarioOutcomePins[key]
		if !ok {
			missing = append(missing, fmt.Sprintf("%q: {Outcome{Trials: %d, Top1SDC: %d, Top5SDC: %d}, %d},", key, out.Trials, out.Top1SDC, out.Top5SDC, masked))
			continue
		}
		if out.Trials != want.out.Trials || out.Top1SDC != want.out.Top1SDC || out.Top5SDC != want.out.Top5SDC || masked != want.masked {
			t.Errorf("%s drifted: %+v masked %d, want %+v masked %d", key, out, masked, want.out, want.masked)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("no pin for:\n%s", strings.Join(missing, "\n"))
	}
}
