package service

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ranger/internal/inject"
)

// testSpec is a tiny valid untrained-lenet spec.
func testSpec(trials, inputs int) JobSpec {
	return JobSpec{
		Model:     "lenet",
		Trials:    trials,
		Inputs:    inputs,
		Seed:      7,
		Untrained: true,
	}
}

func sealedManifest(t *testing.T, spec JobSpec) Manifest {
	t.Helper()
	norm, err := normalizeSpec(spec, 4)
	if err != nil {
		t.Fatalf("normalizeSpec: %v", err)
	}
	man, err := NewManifest(norm, time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	if err != nil {
		t.Fatalf("NewManifest: %v", err)
	}
	return man
}

// fakeRecords fabricates trial records for grid positions [start, end).
func fakeRecords(trials int, start, end int64) []TrialRecord {
	recs := make([]TrialRecord, 0, end-start)
	for p := start; p < end; p++ {
		recs = append(recs, TrialRecord{
			Input: int(p / int64(trials)),
			Trial: int(p % int64(trials)),
			Top1:  p%3 == 0,
			Top5:  p%6 == 0,
		})
	}
	return recs
}

// fakeChain builds a sealed chain over the manifest's whole grid.
func fakeChain(t *testing.T, man Manifest, block int64) []Block {
	t.Helper()
	var blocks []Block
	prev := man.SpecHash
	var start int64
	for seq := 0; start < man.GridTotal; seq++ {
		end := start + block
		if end > man.GridTotal {
			end = man.GridTotal
		}
		b, err := sealBlock(seq, start, end, prev, man.Spec.Trials, false, fakeRecords(man.Spec.Trials, start, end))
		if err != nil {
			t.Fatalf("sealBlock: %v", err)
		}
		blocks = append(blocks, b)
		prev = b.Hash
		start = end
	}
	return blocks
}

func TestManifestSealDetectsTamper(t *testing.T) {
	man := sealedManifest(t, testSpec(4, 2))
	if err := man.VerifySeal(); err != nil {
		t.Fatalf("fresh manifest failed seal check: %v", err)
	}
	tampered := man
	tampered.Spec.Trials = 5
	if err := tampered.VerifySeal(); err == nil {
		t.Fatal("edited spec passed the manifest seal check")
	}
}

func TestSealBlockRejectsBadCoverage(t *testing.T) {
	man := sealedManifest(t, testSpec(4, 2))
	recs := fakeRecords(4, 0, 4)
	if _, err := sealBlock(0, 0, 5, man.SpecHash, 4, false, recs); err == nil {
		t.Fatal("sealBlock accepted a record-count mismatch")
	}
	recs[1] = recs[2] // duplicate position, hole at 1
	if _, err := sealBlock(0, 0, 4, man.SpecHash, 4, false, recs); err == nil {
		t.Fatal("sealBlock accepted a coverage hole")
	}
}

func TestSealBlockOrdersScheduledRecords(t *testing.T) {
	man := sealedManifest(t, testSpec(4, 2))
	recs := fakeRecords(4, 0, 4)
	// OnTrial delivers scheduling order, not grid order.
	recs[0], recs[3] = recs[3], recs[0]
	recs[1], recs[2] = recs[2], recs[1]
	b, err := sealBlock(0, 0, 4, man.SpecHash, 4, false, recs)
	if err != nil {
		t.Fatalf("sealBlock: %v", err)
	}
	for i, r := range b.Results {
		if r.pos(4, false) != int64(i) {
			t.Fatalf("result %d at grid position %d", i, r.pos(4, false))
		}
	}
}

func TestVerifyChainAcceptsAndFolds(t *testing.T) {
	man := sealedManifest(t, testSpec(4, 2)) // grid 8
	blocks := fakeChain(t, man, 3)           // blocks of 3,3,2
	sum, err := VerifyChain(man, blocks)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if !sum.Complete || sum.Frontier != 8 || sum.Blocks != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	want := inject.Outcome{}
	for _, b := range blocks {
		for _, r := range b.Results {
			r.apply(&want)
		}
	}
	if !reflect.DeepEqual(sum.Outcome, want) {
		t.Fatalf("fold = %+v, want %+v", sum.Outcome, want)
	}
	// A prefix verifies too, as incomplete.
	sum, err = VerifyChain(man, blocks[:2])
	if err != nil {
		t.Fatalf("VerifyChain(prefix): %v", err)
	}
	if sum.Complete || sum.Frontier != 6 {
		t.Fatalf("prefix summary = %+v", sum)
	}
}

func TestVerifyChainDetectsTampering(t *testing.T) {
	man := sealedManifest(t, testSpec(4, 2))
	pristine := fakeChain(t, man, 3)
	clone := func() []Block {
		bs := make([]Block, len(pristine))
		copy(bs, pristine)
		return bs
	}

	cases := []struct {
		name   string
		mutate func([]Block) []Block
	}{
		{"flipped verdict", func(bs []Block) []Block {
			recs := make([]TrialRecord, len(bs[1].Results))
			copy(recs, bs[1].Results)
			recs[0].Top1 = !recs[0].Top1
			bs[1].Results = recs
			return bs
		}},
		{"edited hash", func(bs []Block) []Block {
			bs[1].Hash = strings.Repeat("0", 64)
			return bs
		}},
		{"broken link", func(bs []Block) []Block {
			bs[2].Prev = strings.Repeat("0", 64)
			return bs
		}},
		{"dropped block", func(bs []Block) []Block {
			return append(bs[:1], bs[2:]...)
		}},
		{"swapped blocks", func(bs []Block) []Block {
			bs[0], bs[1] = bs[1], bs[0]
			return bs
		}},
	}
	for _, tc := range cases {
		if _, err := VerifyChain(man, tc.mutate(clone())); err == nil {
			t.Errorf("%s passed verification", tc.name)
		}
	}

	// The chain also pins the manifest: a different sealed manifest with
	// the same grid rejects the whole chain at its genesis link.
	other := sealedManifest(t, JobSpec{Model: "lenet", Trials: 4, Inputs: 2, Seed: 8, Untrained: true})
	if _, err := VerifyChain(other, pristine); err == nil {
		t.Error("chain verified against a different manifest")
	}
}

func TestOutcomeRecordRoundTripIsBitExact(t *testing.T) {
	o := inject.Outcome{
		Trials:  5,
		Top1SDC: 2,
		Top5SDC: 1,
		// +Inf is a real deviation value (NaN steering output); JSON
		// numbers cannot carry it, bits can.
		Deviations: []float64{0, 1.5, math.Inf(1), 3.1415926535897932, math.SmallestNonzeroFloat64},
	}
	r := RecordOutcome(o)
	back := r.Outcome()
	if back.Trials != o.Trials || back.Top1SDC != o.Top1SDC || back.Top5SDC != o.Top5SDC {
		t.Fatalf("counters changed: %+v", back)
	}
	if len(back.Deviations) != len(o.Deviations) {
		t.Fatalf("deviation count changed: %d", len(back.Deviations))
	}
	for i := range o.Deviations {
		if math.Float64bits(back.Deviations[i]) != math.Float64bits(o.Deviations[i]) {
			t.Fatalf("deviation %d not bit-exact: %v vs %v", i, back.Deviations[i], o.Deviations[i])
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{Trials: 4, Untrained: true},                                     // no model
		{Model: "lenet", Untrained: true},                                // no trials
		{Model: "nosuch", Trials: 4, Untrained: true},                    // unknown model
		{Model: "lenet", Trials: 4, Scenario: "nosuch", Untrained: true}, // unknown scenario
		{Model: "lenet", Trials: 4, Protect: "nosuch", Untrained: true},  // unknown protection
		{Model: "lenet", Trials: 4, Format: "q8", Untrained: true},       // unknown format
		{Model: "lenet", Trials: 4, LaneWidth: -1, Untrained: true},      // negative lane width
	}
	for i, spec := range bad {
		if _, err := normalizeSpec(spec, 4); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	norm, err := normalizeSpec(JobSpec{Model: "lenet", Trials: 4, Inputs: 1 << 30, Untrained: true}, 4)
	if err != nil {
		t.Fatalf("normalizeSpec: %v", err)
	}
	if norm.Inputs >= 1<<30 {
		t.Fatalf("Inputs not clamped to the dataset: %d", norm.Inputs)
	}
	if norm.Scenario != "bitflip" || norm.Backend != "fp32" || norm.Format != "q32" || norm.BlockTrials != 4 {
		t.Fatalf("defaults not applied: %+v", norm)
	}
	// Scenarios act on either backend's word: an int8 spec defaults to
	// bitflip too, and a legacy -int8 name runs on fp32.
	norm, err = normalizeSpec(JobSpec{Model: "lenet", Trials: 4, Backend: "int8", Untrained: true}, 4)
	if err != nil || norm.Scenario != "bitflip" {
		t.Fatalf("int8 spec: %+v, %v", norm, err)
	}
	if _, err := normalizeSpec(JobSpec{Model: "lenet", Trials: 4, Scenario: "bitflip-int8", Untrained: true}, 4); err != nil {
		t.Fatalf("legacy scenario name on fp32: %v", err)
	}
}
