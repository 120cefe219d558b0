// The service core: a bounded job queue feeding a pool of job workers,
// durable execution by chunked RunSlice, crash recovery, and graceful
// drain. The HTTP layer (server.go) is a thin shell over this type.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ranger/internal/inject"
)

// Config configures a Service.
type Config struct {
	// Store persists jobs; required.
	Store Store
	// JobWorkers is the number of jobs executed concurrently (default 2).
	JobWorkers int
	// QueueCap bounds the submission queue; a full queue rejects
	// submissions with ErrQueueFull backpressure (default 16).
	QueueCap int
	// BlockTrials is the default durability granularity: trials per
	// hash-chained block (default DefaultBlockTrials; specs may override
	// per job).
	BlockTrials int
	// CampaignWorkers caps each campaign's trial-level parallelism
	// (0 = process default).
	CampaignWorkers int
	// Logf sinks service logs (default log.Printf).
	Logf func(format string, args ...any)
}

// ErrQueueFull is the backpressure signal: the bounded submission queue
// is at capacity and the client should retry later.
var ErrQueueFull = errors.New("service: job queue full, retry later")

// ErrDraining rejects submissions while the daemon is shutting down.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Service runs campaign jobs durably. Create with New, start workers
// with Start, and stop with Drain (graceful: every worker finishes and
// persists its current trial block, interrupted jobs return to the
// queue on disk) or Stop (hard: in-flight chunks are abandoned; they
// re-run on the next start, folding to the identical Outcome).
type Service struct {
	cfg     Config
	store   Store
	Metrics *Metrics
	hub     *hub

	queue   chan string
	queued  atomic.Int64 // len(queue) + backlog, the queue-depth gauge
	running atomic.Int64

	mu      sync.Mutex
	backlog []string // recovered jobs, drained before new submissions
	active  map[string]context.CancelFunc

	rootCtx  context.Context
	hardStop context.CancelFunc
	drainCh  chan struct{}
	drained  sync.Once
	wg       sync.WaitGroup
}

// New builds a Service over cfg.Store and recovers interrupted jobs:
// every stored job in a non-terminal state re-enters the execution
// backlog (oldest first) and will resume from its persisted frontier.
func New(cfg Config) (*Service, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: Config.Store is required")
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.BlockTrials <= 0 {
		cfg.BlockTrials = DefaultBlockTrials
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	metrics := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		store:    cfg.Store,
		Metrics:  metrics,
		hub:      newHub(metrics),
		queue:    make(chan string, cfg.QueueCap),
		active:   make(map[string]context.CancelFunc),
		rootCtx:  ctx,
		hardStop: cancel,
		drainCh:  make(chan struct{}),
	}
	metrics.SetGauge("rangerd_queue_depth", func() float64 { return float64(s.queued.Load()) })
	metrics.SetGauge("rangerd_jobs_running", func() float64 { return float64(s.running.Load()) })
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// recover re-queues every non-terminal stored job.
func (s *Service) recover() error {
	ids, err := s.store.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		st, err := s.store.Status(id)
		if err != nil {
			s.cfg.Logf("rangerd: recover %s: %v", id, err)
			continue
		}
		if st.Terminal() {
			continue
		}
		if st.State != StateQueued {
			st.State = StateQueued
			st.UpdatedUnix = time.Now().Unix()
			if err := s.store.SetStatus(id, st); err != nil {
				s.cfg.Logf("rangerd: recover %s: %v", id, err)
				continue
			}
		}
		s.backlog = append(s.backlog, id)
		s.queued.Add(1)
		s.cfg.Logf("rangerd: recovered job %s at frontier %d", id, st.Frontier)
	}
	return nil
}

// Terminal on Status proxies the state check for callers holding a
// status snapshot.
func (st Status) Terminal() bool { return st.State.Terminal() }

// Start launches the job workers.
func (s *Service) Start() {
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
}

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// QueueDepth returns the number of jobs waiting to execute.
func (s *Service) QueueDepth() int { return int(s.queued.Load()) }

// Drain begins graceful shutdown: no new submissions, workers finish and
// persist their current trial block, interrupted jobs return to the
// durable queue. It blocks until every worker exits.
func (s *Service) Drain() {
	s.drained.Do(func() { close(s.drainCh) })
	s.wg.Wait()
}

// Stop shuts down hard: running chunks are cancelled and abandoned (the
// durable frontier stays at the last persisted block; the lost chunk
// re-runs on the next start with an identical fold). It blocks until
// every worker exits.
func (s *Service) Stop() {
	s.drained.Do(func() { close(s.drainCh) })
	s.hardStop()
	s.wg.Wait()
}

// Submit validates, persists, and enqueues a job, returning its sealed
// manifest. A full queue returns ErrQueueFull (HTTP 429 upstream); a
// draining service returns ErrDraining.
func (s *Service) Submit(spec JobSpec) (Manifest, error) {
	if s.Draining() {
		return Manifest{}, ErrDraining
	}
	norm, err := normalizeSpec(spec, s.cfg.BlockTrials)
	if err != nil {
		return Manifest{}, err
	}
	man, err := NewManifest(norm, time.Now())
	if err != nil {
		return Manifest{}, err
	}
	st := Status{State: StateQueued, LastHash: man.SpecHash, UpdatedUnix: time.Now().Unix()}
	if err := s.store.Create(man, st); err != nil {
		return Manifest{}, err
	}
	select {
	case s.queue <- man.ID:
		s.queued.Add(1)
		s.Metrics.Inc(MetricJobsSubmitted, 1)
		return man, nil
	default:
		// Backpressure: reject and leave no orphan state behind. The
		// created job record stays (queued) so an operator could still
		// resurrect it by restarting the daemon, but the client contract
		// is a clean retry.
		st.State = StateCancelled
		st.Error = ErrQueueFull.Error()
		_ = s.store.SetStatus(man.ID, st)
		s.Metrics.Inc(MetricJobsRejected, 1)
		return Manifest{}, ErrQueueFull
	}
}

// Cancel cancels a queued or running job.
func (s *Service) Cancel(id string) error {
	st, err := s.store.Status(id)
	if err != nil {
		return err
	}
	if st.Terminal() {
		return fmt.Errorf("service: job %s already %s", id, st.State)
	}
	s.mu.Lock()
	cancel, running := s.active[id]
	if running {
		cancel() // runJob finishes the bookkeeping
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	st.State = StateCancelled
	st.UpdatedUnix = time.Now().Unix()
	if err := s.store.SetStatus(id, st); err != nil {
		return err
	}
	s.Metrics.Inc(MetricJobsCancelled, 1)
	s.hub.Close(id, st)
	return nil
}

// Job returns a job's manifest and status.
func (s *Service) Job(id string) (Manifest, Status, error) {
	man, err := s.store.Manifest(id)
	if err != nil {
		return Manifest{}, Status{}, err
	}
	st, err := s.store.Status(id)
	if err != nil {
		return Manifest{}, Status{}, err
	}
	return man, st, nil
}

// List returns every stored job id, oldest first.
func (s *Service) List() ([]string, error) { return s.store.List() }

// Store exposes the underlying store (chain downloads, verification).
func (s *Service) Store() Store { return s.store }

// Hub exposes the event hub for the HTTP streaming layer.
func (s *Service) Hub() *hub { return s.hub }

// next blocks for the next job id, draining the recovery backlog before
// the submission queue. It returns "" when the service is stopping.
func (s *Service) next() string {
	s.mu.Lock()
	if len(s.backlog) > 0 {
		id := s.backlog[0]
		s.backlog = s.backlog[1:]
		s.mu.Unlock()
		s.queued.Add(-1)
		return id
	}
	s.mu.Unlock()
	select {
	case id := <-s.queue:
		s.queued.Add(-1)
		return id
	case <-s.drainCh:
		return ""
	}
}

func (s *Service) workerLoop() {
	for {
		id := s.next()
		if id == "" {
			return
		}
		s.runJob(id)
	}
}

// runJob executes one job from its durable frontier to completion (or
// drain, cancellation, or failure).
func (s *Service) runJob(id string) {
	st, err := s.store.Status(id)
	if err != nil {
		s.cfg.Logf("rangerd: %s: %v", id, err)
		return
	}
	if st.Terminal() {
		return // cancelled while queued
	}
	man, err := s.store.Manifest(id)
	if err != nil {
		s.fail(id, st, err)
		return
	}

	// Fold the persisted chain (tolerating a torn tail from a crash
	// mid-append) and trust it over the status record: the chain is the
	// durable truth.
	blocks, torn, err := s.store.RecoverBlocks(id)
	if err != nil {
		s.fail(id, st, err)
		return
	}
	if torn {
		s.cfg.Logf("rangerd: %s: torn chain tail dropped; resuming from last sealed block", id)
	}
	sum, err := VerifyChain(man, blocks)
	if err != nil {
		s.fail(id, st, fmt.Errorf("persisted chain invalid: %w", err))
		return
	}
	if sum.Frontier > 0 {
		s.Metrics.Inc(MetricJobsResumed, 1)
	}

	jobCtx, cancel := context.WithCancel(s.rootCtx)
	defer cancel()
	s.mu.Lock()
	s.active[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.active, id)
		s.mu.Unlock()
	}()
	s.running.Add(1)
	defer s.running.Add(-1)

	st.State = StateRunning
	st.Frontier = sum.Frontier
	st.Blocks = sum.Blocks
	st.LastHash = sum.LastHash
	st.UpdatedUnix = time.Now().Unix()
	if err := s.store.SetStatus(id, st); err != nil {
		s.cfg.Logf("rangerd: %s: %v", id, err)
		return
	}
	s.hub.Publish(id, "status", st)

	rt, err := buildRuntime(man.Spec, s.cfg.CampaignWorkers)
	if err != nil {
		s.fail(id, st, err)
		return
	}
	b := newBatcher(s.store, man, sum)
	if man.Spec.Persistent() {
		rt.campaign.OnSequence = func(sr inject.SequenceResult) {
			b.AddSequence(sr)
			s.hub.Publish(id, "sequence", NewSequenceRecord(sr))
		}
		s.runPersistent(jobCtx, id, man, st, rt, b)
		return
	}
	rt.campaign.OnTrial = func(tr inject.TrialResult) {
		b.Add(tr)
		s.Metrics.ObserveTrial(tr.Elapsed)
		s.hub.Publish(id, "trial", NewTrialRecord(tr))
	}

	if man.Spec.Adaptive != "" {
		s.runAdaptive(jobCtx, id, man, st, blocks, rt, b)
		return
	}

	block := int64(man.Spec.BlockTrials)
	for b.Frontier() < man.GridTotal {
		select {
		case <-s.drainCh:
			// Graceful drain: the current block is already persisted;
			// park the job back on the durable queue.
			s.park(id, st)
			return
		default:
		}
		start := b.Frontier()
		end := start + block
		if end > man.GridTotal {
			end = man.GridTotal
		}
		part, err := rt.campaign.RunSlice(jobCtx, rt.inputs, start, end)
		if err != nil {
			s.settleRunError(id, st, err)
			return
		}
		blk, err := b.Flush(end, part)
		if err != nil {
			s.fail(id, st, err)
			return
		}
		if err := s.noteBlock(id, &st, b, blk, part.Trials); err != nil {
			s.fail(id, st, err)
			return
		}
	}
	s.complete(id, st, b)
}

// runPersistent executes a persistent-surface job from its durable
// frontier: the sequence grid runs as consecutive RunPersistentSlice
// chunks, each persisted as one hash-chained block of sequence records.
// Sequences keep their absolute sampling streams across restarts, so a
// resumed job's blocks — and its folded PersistentOutcome — are
// byte-identical to an uninterrupted run's from every block boundary.
func (s *Service) runPersistent(ctx context.Context, id string, man Manifest, st Status, rt *jobRuntime, b *batcher) {
	block := int64(man.Spec.BlockTrials)
	for b.Frontier() < man.GridTotal {
		select {
		case <-s.drainCh:
			// Graceful drain: the current block is already persisted;
			// park the job back on the durable queue.
			s.park(id, st)
			return
		default:
		}
		start := b.Frontier()
		end := start + block
		if end > man.GridTotal {
			end = man.GridTotal
		}
		part, err := rt.campaign.RunPersistentSlice(ctx, rt.inputs, start, end)
		if err != nil {
			s.settleRunError(id, st, err)
			return
		}
		blk, err := b.FlushPersistent(end, part)
		if err != nil {
			s.fail(id, st, err)
			return
		}
		if err := s.noteBlock(id, &st, b, blk, int(part.Sequences)); err != nil {
			s.fail(id, st, err)
			return
		}
	}
	s.complete(id, st, b)
}

// runAdaptive executes an adaptive job from its durable frontier. The
// engine's per-stratum state is restored by replaying every persisted
// record in chain (allocation) order — round allocation is a pure
// function of the restored counts, so the resumed job continues
// byte-identically to an uninterrupted one. Each live round becomes one
// chain block; the job completes when the engine stops (every stratum
// at its CI target, or budget spent), usually with the chain frontier
// well short of the manifest grid total.
func (s *Service) runAdaptive(ctx context.Context, id string, man Manifest, st Status, blocks []Block, rt *jobRuntime, b *batcher) {
	ar, err := rt.campaign.NewAdaptiveRun(rt.inputs)
	if err != nil {
		s.fail(id, st, err)
		return
	}
	ar.RoundTrials = man.Spec.BlockTrials
	for _, blk := range blocks {
		for _, r := range blk.Results {
			if err := ar.ReplayTrial(r.Stratum, r.Top1, r.Top5, r.Reg, math.Float64frombits(r.DevBits)); err != nil {
				s.fail(id, st, fmt.Errorf("adaptive replay: %w", err))
				return
			}
		}
	}
	if ar.Seq() != b.Frontier() {
		s.fail(id, st, fmt.Errorf("adaptive replay reached seq %d, chain frontier %d", ar.Seq(), b.Frontier()))
		return
	}
	for !ar.Done() {
		select {
		case <-s.drainCh:
			// Graceful drain: completed rounds are already persisted;
			// park the job back on the durable queue.
			s.park(id, st)
			return
		default:
		}
		start := ar.Seq()
		part, err := ar.NextRound(ctx)
		if err != nil {
			s.settleRunError(id, st, err)
			return
		}
		end := ar.Seq()
		if end == start {
			break
		}
		blk, err := b.Flush(end, part)
		if err != nil {
			s.fail(id, st, err)
			return
		}
		if err := s.noteBlock(id, &st, b, blk, part.Trials); err != nil {
			s.fail(id, st, err)
			return
		}
	}
	s.complete(id, st, b)
}

// park returns an interrupted job to the durable queue (graceful drain
// or hard stop): its persisted frontier is intact, so recovery resumes
// it exactly where it stopped.
func (s *Service) park(id string, st Status) {
	st.State = StateQueued
	st.UpdatedUnix = time.Now().Unix()
	if err := s.store.SetStatus(id, st); err != nil {
		s.cfg.Logf("rangerd: %s: %v", id, err)
	}
	s.Metrics.Inc(MetricJobsInterrupted, 1)
	s.hub.Publish(id, "status", st)
}

// settleRunError maps a chunk execution error to the job's fate: hard
// stop parks the job for resume, API cancellation closes it, anything
// else fails it.
func (s *Service) settleRunError(id string, st Status, err error) {
	if errors.Is(err, context.Canceled) {
		if s.rootCtx.Err() != nil {
			// Hard stop: leave the job resumable; recovery re-queues it.
			s.park(id, st)
			return
		}
		// API cancellation. Count it before the status write, so a
		// watcher that sees the terminal state also sees the count.
		s.Metrics.Inc(MetricJobsCancelled, 1)
		st.State = StateCancelled
		st.UpdatedUnix = time.Now().Unix()
		if serr := s.store.SetStatus(id, st); serr != nil {
			s.cfg.Logf("rangerd: %s: %v", id, serr)
		}
		s.hub.Close(id, st)
		return
	}
	s.fail(id, st, err)
}

// noteBlock records a freshly persisted block: metrics, the advancing
// status record, and the block event for streaming watchers. Trial
// latencies are observed per trial as they stream (OnTrial).
func (s *Service) noteBlock(id string, st *Status, b *batcher, blk Block, trials int) error {
	s.Metrics.Inc(MetricBlocksPersisted, 1)
	s.Metrics.Inc(MetricTrialsRun, uint64(trials))
	st.Frontier = b.Frontier()
	st.Blocks = b.Blocks()
	st.LastHash = b.LastHash()
	st.UpdatedUnix = time.Now().Unix()
	if err := s.store.SetStatus(id, *st); err != nil {
		return err
	}
	s.hub.Publish(id, "block", struct {
		Seq   int    `json:"seq"`
		Start int64  `json:"start"`
		End   int64  `json:"end"`
		Hash  string `json:"hash"`
	}{blk.Seq, blk.Start, blk.End, blk.Hash})
	return nil
}

// complete marks a job completed with the chain's folded outcome.
func (s *Service) complete(id string, st Status, b *batcher) {
	var trials int64
	if b.persistent {
		out := RecordPersistentOutcome(b.PersistentOutcome())
		st.Persistent = &out
		trials = out.Sequences
	} else {
		out := RecordOutcome(b.Outcome())
		st.Outcome = &out
		trials = int64(out.Trials)
	}
	st.State = StateCompleted
	st.UpdatedUnix = time.Now().Unix()
	if err := s.store.SetStatus(id, st); err != nil {
		s.cfg.Logf("rangerd: %s: %v", id, err)
		return
	}
	// Counted only once the completed status is stored, so a watcher
	// may see the state a moment before the count.
	s.Metrics.Inc(MetricJobsCompleted, 1)
	s.cfg.Logf("rangerd: %s completed: %d trials, final hash %s", id, trials, st.LastHash)
	s.hub.Close(id, st)
}

// fail marks a job failed.
func (s *Service) fail(id string, st Status, err error) {
	s.cfg.Logf("rangerd: %s failed: %v", id, err)
	st.State = StateFailed
	st.Error = err.Error()
	st.UpdatedUnix = time.Now().Unix()
	// Count before the status write, so a watcher that sees the job
	// failed also sees the count; the job fails even if the write does.
	s.Metrics.Inc(MetricJobsFailed, 1)
	if serr := s.store.SetStatus(id, st); serr != nil {
		s.cfg.Logf("rangerd: %s: %v", id, serr)
	}
	s.hub.Close(id, st)
}
