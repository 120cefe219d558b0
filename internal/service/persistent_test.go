package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ranger/internal/inject"
)

// persistentTestSpec is a tiny persistent weight-surface job: each trial
// is a sequence of inferences over one stuck weight-memory fault.
func persistentTestSpec(trials, inputs int) JobSpec {
	spec := testSpec(trials, inputs)
	spec.Surface = "weight"
	spec.SequenceLen = 3
	spec.Repair = true
	spec.ProfileSamples = 4
	return spec
}

// referencePersistentOutcome runs the spec's persistent campaign
// uninterrupted, outside the service, as the byte-identity reference.
func referencePersistentOutcome(t *testing.T, spec JobSpec) PersistentOutcomeRecord {
	t.Helper()
	rt, err := buildRuntime(spec, 0)
	if err != nil {
		t.Fatalf("buildRuntime: %v", err)
	}
	out, err := rt.campaign.RunPersistent(context.Background(), rt.inputs)
	if err != nil {
		t.Fatalf("reference RunPersistent: %v", err)
	}
	return RecordPersistentOutcome(out)
}

func TestServiceRunsPersistentJob(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	defer svc.Stop()

	spec := persistentTestSpec(7, 2) // grid = 7 sequences
	spec.BlockTrials = 3             // blocks of 3,3,1
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if man.GridTotal != 7 {
		t.Fatalf("persistent grid = %d sequences, want 7", man.GridTotal)
	}
	st := waitTerminal(t, svc, man.ID, 60*time.Second)
	if st.State != StateCompleted {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Outcome != nil {
		t.Fatalf("persistent job recorded a transient outcome: %+v", st.Outcome)
	}
	if st.Persistent == nil || st.Persistent.Sequences != 7 {
		t.Fatalf("persistent outcome = %+v", st.Persistent)
	}
	if st.Blocks != 3 || st.Frontier != 7 {
		t.Fatalf("status = %+v", st)
	}

	blocks, err := svc.Store().Blocks(man.ID)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	sum, err := VerifyChain(man, blocks)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if !sum.Complete || sum.LastHash != st.LastHash {
		t.Fatalf("chain summary %+v disagrees with status %+v", sum, st)
	}
	if got := RecordPersistentOutcome(sum.Persistent); !reflect.DeepEqual(got, *st.Persistent) {
		t.Fatalf("chain refold %+v != live outcome %+v", got, *st.Persistent)
	}
	if got := referencePersistentOutcome(t, man.Spec); !reflect.DeepEqual(got, *st.Persistent) {
		t.Fatalf("service outcome %+v != uninterrupted reference %+v", *st.Persistent, got)
	}
}

// TestPersistentResumeByteIdentical is the persistent half of the
// acceptance test: a weight-surface job interrupted at every block
// boundary resumes to a persistent outcome — and a chain head hash —
// byte-identical to the uninterrupted run.
func TestPersistentResumeByteIdentical(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	spec := persistentTestSpec(8, 2) // grid = 8 sequences
	spec.BlockTrials = 3             // blocks of 3,3,2
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	full := waitTerminal(t, svc, man.ID, 60*time.Second)
	svc.Stop()
	if full.State != StateCompleted {
		t.Fatalf("reference job finished %s (%s)", full.State, full.Error)
	}
	blocks, err := svc.Store().Blocks(man.ID)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	if len(blocks) != 3 {
		t.Fatalf("reference chain has %d blocks", len(blocks))
	}

	for k := 0; k < len(blocks); k++ {
		st := resumeFrom(t, man, blocks, k)
		if st.State != StateCompleted {
			t.Fatalf("resume from block %d finished %s (%s)", k, st.State, st.Error)
		}
		if !reflect.DeepEqual(st.Persistent, full.Persistent) {
			t.Fatalf("resume from block %d outcome %+v != reference %+v", k, st.Persistent, full.Persistent)
		}
		if st.LastHash != full.LastHash {
			t.Fatalf("resume from block %d head %s != reference %s", k, st.LastHash, full.LastHash)
		}
	}
}

// TestPersistentResumeInt8 repeats the boundary-resume check on the
// quantized backend with quant-param faults — the surface whose DUE
// sequences must also refold identically.
func TestPersistentResumeInt8(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	spec := persistentTestSpec(6, 2)
	spec.Surface = "quantparam"
	spec.Backend = "int8"
	spec.Scenario = "bitflip-int8"
	spec.BlockTrials = 4 // blocks of 4,2
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	full := waitTerminal(t, svc, man.ID, 120*time.Second)
	svc.Stop()
	if full.State != StateCompleted {
		t.Fatalf("reference job finished %s (%s)", full.State, full.Error)
	}
	blocks, err := svc.Store().Blocks(man.ID)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}

	st := resumeFrom(t, man, blocks, 1)
	if st.State != StateCompleted {
		t.Fatalf("quantparam resume finished %s (%s)", st.State, st.Error)
	}
	if !reflect.DeepEqual(st.Persistent, full.Persistent) || st.LastHash != full.LastHash {
		t.Fatalf("quantparam resume diverged: %+v / %s vs %+v / %s",
			st.Persistent, st.LastHash, full.Persistent, full.LastHash)
	}
}

func TestPersistentSpecValidation(t *testing.T) {
	base := func() JobSpec { return persistentTestSpec(4, 1) }
	bad := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"unknown surface", func(s *JobSpec) { s.Surface = "nosuch" }},
		{"adaptive persistent", func(s *JobSpec) { s.Adaptive = "stratified" }},
		{"quantparam on fp32", func(s *JobSpec) { s.Surface = "quantparam" }},
		{"negative seqlen", func(s *JobSpec) { s.SequenceLen = -1 }},
		{"seqlen on transient", func(s *JobSpec) { s.Surface = "activation" }},
		{"repair on transient", func(s *JobSpec) { s.Surface = "activation"; s.SequenceLen = 0 }},
	}
	for _, tc := range bad {
		spec := base()
		tc.mutate(&spec)
		if _, err := normalizeSpec(spec, 4); err == nil {
			t.Errorf("%s accepted: %+v", tc.name, spec)
		}
	}

	norm, err := normalizeSpec(base(), 4)
	if err != nil {
		t.Fatalf("normalizeSpec: %v", err)
	}
	if !norm.Persistent() || norm.Surface != "weight" {
		t.Fatalf("normalized spec lost its surface: %+v", norm)
	}
	// The transient default names the activation surface explicitly and
	// stays non-persistent.
	tnorm, err := normalizeSpec(testSpec(4, 1), 4)
	if err != nil {
		t.Fatalf("normalizeSpec: %v", err)
	}
	if tnorm.Surface != "activation" || tnorm.Persistent() {
		t.Fatalf("transient defaults = %+v", tnorm)
	}
	// Persistent jobs get the default sequence length when unset.
	dspec := base()
	dspec.SequenceLen = 0
	dnorm, err := normalizeSpec(dspec, 4)
	if err != nil {
		t.Fatalf("normalizeSpec: %v", err)
	}
	if dnorm.SequenceLen == 0 {
		t.Fatalf("default sequence length not applied: %+v", dnorm)
	}
}

// TestSequenceRecordRoundTrip checks the persisted sequence record
// reproduces its SequenceResult fold exactly — the property the chain
// refold cross-check in FlushPersistent rests on.
func TestSequenceRecordRoundTrip(t *testing.T) {
	results := []inject.SequenceResult{
		{Sequence: 0, Node: "conv1", Detected: true, DetectLatency: 2, SDCs: 1, FirstSDC: 1,
			Repaired: true, PostRepairOK: true, Inferences: 2, Stratum: -1},
		{Sequence: 1, Node: "fc2", SDCs: 3, FirstSDC: 2, Inferences: 4, Stratum: -1},
		{Sequence: 2, DUE: true, Stratum: -1},
	}
	var want, got inject.PersistentOutcome
	for _, sr := range results {
		sr.Apply(&want)
		rec := NewSequenceRecord(sr)
		if rec.pos(0, true) != sr.Sequence {
			t.Fatalf("sequence record position = %d, want %d", rec.pos(0, true), sr.Sequence)
		}
		rec.applyPersistent(&got)
	}
	if !persistentOutcomeEqual(want, got) {
		t.Fatalf("record fold %+v != direct fold %+v", got, want)
	}

	man := sealedManifest(t, persistentTestSpec(4, 1))
	if man.GridTotal != 4 {
		t.Fatalf("persistent grid = %d sequences, want Trials", man.GridTotal)
	}
}
