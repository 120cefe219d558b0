package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newTestService builds a started service over dir with small knobs.
func newTestService(t *testing.T, dir string, mutate func(*Config)) *Service {
	t.Helper()
	store, err := OpenFSStore(dir)
	if err != nil {
		t.Fatalf("OpenFSStore: %v", err)
	}
	cfg := Config{
		Store:      store,
		JobWorkers: 1,
		QueueCap:   8,
		Logf:       t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

// waitTerminal polls until the job leaves the queued/running states.
func waitTerminal(t *testing.T, svc *Service, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, st, err := svc.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v (frontier %d)", id, st.State, timeout, st.Frontier)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCounter polls a service counter until it reads want. A job's
// completed count is taken after its status is stored, so a caller that
// has just seen the status may read the counter a moment early.
func waitCounter(t *testing.T, svc *Service, name string, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n := svc.Metrics.Counter(name)
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after %v, want %d", name, n, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceOutcome runs the spec's campaign uninterrupted, outside the
// service, as the byte-identity reference.
func referenceOutcome(t *testing.T, spec JobSpec) OutcomeRecord {
	t.Helper()
	rt, err := buildRuntime(spec, 0)
	if err != nil {
		t.Fatalf("buildRuntime: %v", err)
	}
	out, err := rt.campaign.Run(context.Background(), rt.inputs)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	return RecordOutcome(out)
}

func TestServiceRunsJobToCompletion(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	defer svc.Stop()

	spec := testSpec(6, 2) // grid 12
	spec.BlockTrials = 5   // blocks of 5,5,2
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, svc, man.ID, 30*time.Second)
	if st.State != StateCompleted {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Outcome == nil || st.Outcome.Trials != 12 {
		t.Fatalf("outcome = %+v", st.Outcome)
	}
	if st.Blocks != 3 || st.Frontier != 12 {
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
	if got := RecordOutcome(sum.Outcome); !reflect.DeepEqual(got, *st.Outcome) {
		t.Fatalf("chain refold %+v != live outcome %+v", got, *st.Outcome)
	}
	if got := referenceOutcome(t, man.Spec); !reflect.DeepEqual(got, *st.Outcome) {
		t.Fatalf("service outcome %+v != uninterrupted reference %+v", *st.Outcome, got)
	}
	waitCounter(t, svc, MetricJobsCompleted, 1, 5*time.Second)
	if n := svc.Metrics.Counter(MetricBlocksPersisted); n != 3 {
		t.Fatalf("blocks counter = %d", n)
	}
}

// resumeFrom replays a completed job's chain prefix of k blocks into a
// fresh store and lets a new service finish the job from there.
func resumeFrom(t *testing.T, man Manifest, blocks []Block, k int) Status {
	t.Helper()
	dir := t.TempDir()
	store, err := OpenFSStore(dir)
	if err != nil {
		t.Fatalf("OpenFSStore: %v", err)
	}
	// The job as a crashed daemon would find it: manifest, a non-terminal
	// status, and k persisted blocks.
	if err := store.Create(man, Status{State: StateRunning, LastHash: man.SpecHash}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, b := range blocks[:k] {
		if err := store.Append(man.ID, b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	svc := newTestService(t, dir, nil)
	if svc.QueueDepth() != 1 {
		t.Fatalf("recovery did not re-queue the job (depth %d)", svc.QueueDepth())
	}
	svc.Start()
	defer svc.Stop()
	st := waitTerminal(t, svc, man.ID, 30*time.Second)
	if k > 0 && svc.Metrics.Counter(MetricJobsResumed) != 1 {
		t.Fatalf("resume from block %d not counted as a resume", k)
	}
	return st
}

// TestResumeByteIdenticalFP32 is the acceptance test's core: a job
// interrupted at every block boundary resumes to an aggregate outcome —
// and a chain head hash — byte-identical to the uninterrupted run.
func TestResumeByteIdenticalFP32(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	spec := testSpec(12, 2) // grid 24
	spec.BlockTrials = 6    // 4 blocks
	spec.LaneWidth = 8      // accepted and ignored; recorded in the sealed spec
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	full := waitTerminal(t, svc, man.ID, 30*time.Second)
	svc.Stop()
	if full.State != StateCompleted {
		t.Fatalf("reference job finished %s (%s)", full.State, full.Error)
	}
	blocks, err := svc.Store().Blocks(man.ID)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	if len(blocks) != 4 {
		t.Fatalf("reference chain has %d blocks", len(blocks))
	}

	for k := 0; k < len(blocks); k++ {
		st := resumeFrom(t, man, blocks, k)
		if st.State != StateCompleted {
			t.Fatalf("resume from block %d finished %s (%s)", k, st.State, st.Error)
		}
		if !reflect.DeepEqual(st.Outcome, full.Outcome) {
			t.Fatalf("resume from block %d outcome %+v != reference %+v", k, st.Outcome, full.Outcome)
		}
		if st.LastHash != full.LastHash {
			t.Fatalf("resume from block %d head %s != reference %s", k, st.LastHash, full.LastHash)
		}
	}
}

// TestResumeByteIdenticalInt8 repeats the boundary-resume check on the
// quantized backend, whose campaigns strike stored int8 words.
func TestResumeByteIdenticalInt8(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	spec := testSpec(8, 2) // grid 16
	spec.Backend = "int8"
	spec.Scenario = "bitflip-int8"
	spec.ProfileSamples = 4
	spec.BlockTrials = 6 // blocks of 6,6,4
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

	st := resumeFrom(t, man, blocks, 1)
	if st.State != StateCompleted {
		t.Fatalf("int8 resume finished %s (%s)", st.State, st.Error)
	}
	if !reflect.DeepEqual(st.Outcome, full.Outcome) || st.LastHash != full.LastHash {
		t.Fatalf("int8 resume diverged: %+v / %s vs %+v / %s",
			st.Outcome, st.LastHash, full.Outcome, full.LastHash)
	}
}

// TestHardStopMidJobResumes kills the service (hard, like SIGKILL as far
// as the in-flight chunk is concerned) mid-campaign and checks the
// restarted service completes the job byte-identically.
func TestHardStopMidJobResumes(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, dir, nil)
	svc.Start()
	spec := testSpec(40, 2) // grid 80
	spec.BlockTrials = 4    // 20 blocks: plenty of boundaries to land on
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until some progress persisted, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st, err := svc.Job(man.ID)
		if err != nil {
			t.Fatalf("Job: %v", err)
		}
		if st.Frontier >= 8 || st.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no persisted progress before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Stop()

	svc2 := newTestService(t, dir, nil)
	svc2.Start()
	defer svc2.Stop()
	st := waitTerminal(t, svc2, man.ID, 60*time.Second)
	if st.State != StateCompleted {
		t.Fatalf("resumed job finished %s (%s)", st.State, st.Error)
	}
	if ref := referenceOutcome(t, man.Spec); !reflect.DeepEqual(*st.Outcome, ref) {
		t.Fatalf("resumed outcome %+v != uninterrupted reference %+v", *st.Outcome, ref)
	}
	blocks, err := svc2.Store().Blocks(man.ID)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	if sum, err := VerifyChain(man, blocks); err != nil || !sum.Complete {
		t.Fatalf("final chain invalid: %+v, %v", sum, err)
	}
}

// TestDrainParksRunningJob checks graceful drain: the worker finishes
// its current block, the job returns to the durable queue, and a fresh
// service completes it.
func TestDrainParksRunningJob(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, dir, nil)
	svc.Start()
	spec := testSpec(50, 2) // grid 100
	spec.BlockTrials = 4
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st, err := svc.Job(man.ID)
		if err != nil {
			t.Fatalf("Job: %v", err)
		}
		if st.Frontier >= 4 || st.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no persisted progress before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Drain()
	_, st, err := svc.Job(man.ID)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if st.State != StateQueued && st.State != StateCompleted {
		t.Fatalf("drained job is %s, want queued (or already completed)", st.State)
	}
	if _, err := svc.Submit(testSpec(1, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}

	svc2 := newTestService(t, dir, nil)
	svc2.Start()
	defer svc2.Stop()
	final := waitTerminal(t, svc2, man.ID, 60*time.Second)
	if final.State != StateCompleted {
		t.Fatalf("parked job finished %s (%s)", final.State, final.Error)
	}
	if ref := referenceOutcome(t, man.Spec); !reflect.DeepEqual(*final.Outcome, ref) {
		t.Fatalf("parked-and-resumed outcome %+v != reference %+v", *final.Outcome, ref)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	// Workers never started: the queue fills and the bounded-queue
	// contract kicks in.
	svc := newTestService(t, t.TempDir(), func(c *Config) { c.QueueCap = 2 })
	defer svc.Stop()
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(testSpec(2, 1)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	_, err := svc.Submit(testSpec(2, 1))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over capacity = %v, want ErrQueueFull", err)
	}
	if n := svc.Metrics.Counter(MetricJobsRejected); n != 1 {
		t.Fatalf("rejected counter = %d", n)
	}
	if d := svc.QueueDepth(); d != 2 {
		t.Fatalf("queue depth = %d", d)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	defer svc.Stop()
	man, err := svc.Submit(testSpec(2, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := svc.Cancel(man.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	_, st, err := svc.Job(man.ID)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled job is %s", st.State)
	}
	if err := svc.Cancel(man.ID); err == nil {
		t.Fatal("Cancel accepted a terminal job")
	}
	// The worker must skip the cancelled job rather than run it.
	svc.Start()
	time.Sleep(20 * time.Millisecond)
	_, st, _ = svc.Job(man.ID)
	if st.State != StateCancelled {
		t.Fatalf("worker revived a cancelled job: %s", st.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	defer svc.Stop()
	spec := testSpec(5000, 2) // big enough to still be running when cancelled
	spec.BlockTrials = 50
	man, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st, err := svc.Job(man.ID)
		if err != nil {
			t.Fatalf("Job: %v", err)
		}
		if st.State == StateRunning {
			break
		}
		if st.Terminal() {
			t.Fatalf("job reached %s before cancellation", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(man.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitTerminal(t, svc, man.ID, 30*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job finished %s", st.State)
	}
	if n := svc.Metrics.Counter(MetricJobsCancelled); n != 1 {
		t.Fatalf("cancelled counter = %d", n)
	}
}

// adaptiveTestSpec returns a small stratified job spec: one input, a
// 120-trial budget, and blocks of 32 (one chain block per round).
func adaptiveTestSpec() JobSpec {
	spec := testSpec(120, 1)
	spec.Adaptive = "stratified"
	spec.CITarget = 0.2
	spec.Strata = 2
	spec.BlockTrials = 32
	return spec
}

// referenceAdaptiveOutcome runs the adaptive spec uninterrupted outside
// the service, with the service's round size, as the byte-identity
// reference.
func referenceAdaptiveOutcome(t *testing.T, spec JobSpec) OutcomeRecord {
	t.Helper()
	rt, err := buildRuntime(spec, 0)
	if err != nil {
		t.Fatalf("buildRuntime: %v", err)
	}
	ar, err := rt.campaign.NewAdaptiveRun(rt.inputs)
	if err != nil {
		t.Fatalf("NewAdaptiveRun: %v", err)
	}
	ar.RoundTrials = spec.BlockTrials
	for !ar.Done() {
		if _, err := ar.NextRound(context.Background()); err != nil {
			t.Fatalf("NextRound: %v", err)
		}
	}
	return RecordOutcome(ar.Result().Outcome)
}

func TestServiceRunsAdaptiveJob(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	defer svc.Stop()
	man, err := svc.Submit(adaptiveTestSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, svc, man.ID, 60*time.Second)
	if st.State != StateCompleted {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Outcome == nil || st.Outcome.Trials == 0 || st.Frontier != int64(st.Outcome.Trials) {
		t.Fatalf("outcome %+v, frontier %d", st.Outcome, st.Frontier)
	}
	blocks, err := svc.Store().Blocks(man.ID)
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	sum, err := VerifyChain(man, blocks)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if sum.LastHash != st.LastHash || sum.Frontier != st.Frontier {
		t.Fatalf("chain summary %+v disagrees with status %+v", sum, st)
	}
	if got := RecordOutcome(sum.Outcome); !reflect.DeepEqual(got, *st.Outcome) {
		t.Fatalf("chain refold %+v != live outcome %+v", got, *st.Outcome)
	}
	if ref := referenceAdaptiveOutcome(t, man.Spec); !reflect.DeepEqual(ref, *st.Outcome) {
		t.Fatalf("service outcome %+v != uninterrupted reference %+v", *st.Outcome, ref)
	}
}

// TestAdaptiveResumeByteIdentical interrupts an adaptive job at every
// round boundary and checks the replayed per-stratum frontier continues
// to a byte-identical outcome and chain head.
func TestAdaptiveResumeByteIdentical(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	svc.Start()
	man, err := svc.Submit(adaptiveTestSpec())
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
	if len(blocks) < 2 {
		t.Fatalf("reference chain has %d blocks; need >=2 for a resume boundary", len(blocks))
	}
	for k := 0; k < len(blocks); k++ {
		st := resumeFrom(t, man, blocks, k)
		if st.State != StateCompleted {
			t.Fatalf("resume from block %d finished %s (%s)", k, st.State, st.Error)
		}
		if !reflect.DeepEqual(st.Outcome, full.Outcome) || st.LastHash != full.LastHash {
			t.Fatalf("resume from block %d diverged: %+v / %s vs %+v / %s",
				k, st.Outcome, st.LastHash, full.Outcome, full.LastHash)
		}
	}
}

func TestAdaptiveSpecValidation(t *testing.T) {
	spec := adaptiveTestSpec()
	spec.Adaptive = "bogus"
	if _, err := normalizeSpec(spec, 4); err == nil {
		t.Fatal("bogus adaptive mode accepted")
	}
	spec = adaptiveTestSpec()
	spec.CITarget = 1.5
	if _, err := normalizeSpec(spec, 4); err == nil {
		t.Fatal("CITarget >= 1 accepted")
	}
	if norm, err := normalizeSpec(adaptiveTestSpec(), 4); err != nil {
		t.Fatalf("valid adaptive spec rejected: %v", err)
	} else if norm.CITarget != 0.2 || norm.Strata != 2 {
		t.Fatalf("normalized spec lost adaptive knobs: %+v", norm)
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Inc(MetricJobsSubmitted, 3)
	m.SetGauge("rangerd_queue_depth", func() float64 { return 2 })
	// Ten trials of three very different latencies, as a masked trial,
	// a late-layer and an early-layer fault take: each lands in its own
	// bucket.
	for i := 0; i < 10; i++ {
		d := 40 * time.Microsecond
		switch {
		case i >= 8:
			d = 20 * time.Millisecond
		case i >= 3:
			d = 300 * time.Microsecond
		}
		m.ObserveTrial(d)
	}
	var buf strings.Builder
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE rangerd_jobs_submitted_total counter",
		"rangerd_jobs_submitted_total 3",
		"# TYPE rangerd_queue_depth gauge",
		"rangerd_queue_depth 2",
		"# TYPE rangerd_trial_latency_seconds histogram",
		`rangerd_trial_latency_seconds_bucket{le="5e-05"} 3`,
		`rangerd_trial_latency_seconds_bucket{le="0.00025"} 3`,
		`rangerd_trial_latency_seconds_bucket{le="0.0005"} 8`,
		`rangerd_trial_latency_seconds_bucket{le="0.01"} 8`,
		`rangerd_trial_latency_seconds_bucket{le="0.025"} 10`,
		`rangerd_trial_latency_seconds_bucket{le="+Inf"} 10`,
		"rangerd_trial_latency_seconds_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
