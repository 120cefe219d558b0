// The block batcher: bridges a campaign's streamed per-trial results
// into the durable hash chain. Trials arrive in scheduling order from
// concurrent workers; the batcher buffers one chunk's records, seals
// them into the next chain block when the chunk's RunSlice returns, and
// appends it durably — batching trial writes at block granularity so
// durability costs one fsync per block instead of one per trial under
// load.
package service

import (
	"fmt"
	"math"

	"ranger/internal/inject"
)

// batcher accumulates one job's trial records between block boundaries
// and maintains the chain cursor (sequence, previous hash, durable
// frontier, running aggregate). It is not itself goroutine-safe: Add is
// called from Campaign.OnTrial, whose invocations the campaign
// serializes, and flush is called only after RunSlice returns (which
// orders all OnTrial calls before it).
type batcher struct {
	store      Store
	id         string
	trials     int  // per-input trial count (grid linearization)
	seqOrdered bool // records order by sequence number, not grid
	persistent bool // sequence records folding a PersistentOutcome

	seq      int
	prev     string
	frontier int64
	outcome  inject.Outcome
	pout     inject.PersistentOutcome

	pending []TrialRecord
}

// newBatcher positions a batcher at a verified chain summary: resumed
// jobs continue appending exactly where the persisted chain ends.
func newBatcher(store Store, man Manifest, sum ChainSummary) *batcher {
	persistent := man.Spec.Persistent()
	return &batcher{
		store:      store,
		id:         man.ID,
		trials:     man.Spec.Trials,
		seqOrdered: man.Spec.Adaptive != "" || persistent,
		persistent: persistent,
		seq:        sum.Blocks,
		prev:       sum.LastHash,
		frontier:   sum.Frontier,
		outcome:    sum.Outcome,
		pout:       sum.Persistent,
	}
}

// Add buffers one streamed trial result for the current block.
func (b *batcher) Add(tr inject.TrialResult) {
	b.pending = append(b.pending, NewTrialRecord(tr))
}

// AddSequence buffers one streamed persistent sequence result.
func (b *batcher) AddSequence(sr inject.SequenceResult) {
	b.pending = append(b.pending, NewSequenceRecord(sr))
}

// Flush seals the buffered trial records into the chain block covering
// [frontier, end), appends it durably, and advances the cursor. The
// chunk's partial Outcome (RunSlice's return) cross-checks the fold: the
// persisted chain must reproduce exactly what the live campaign
// reported, or the block is not written.
func (b *batcher) Flush(end int64, part inject.Outcome) (Block, error) {
	blk, err := b.seal(end, int64(part.Trials), func(rs []TrialRecord) bool {
		var check inject.Outcome
		for _, r := range rs {
			r.apply(&check)
		}
		return outcomeEqual(check, part)
	})
	if err == nil {
		mergeOutcome(&b.outcome, part)
	}
	return blk, err
}

// FlushPersistent is Flush for persistent-surface jobs: the buffered
// sequence records seal into the next block, their refold is
// cross-checked bit-exactly against the chunk's live PersistentOutcome,
// and the running persistent aggregate advances.
func (b *batcher) FlushPersistent(end int64, part inject.PersistentOutcome) (Block, error) {
	blk, err := b.seal(end, part.Sequences, func(rs []TrialRecord) bool {
		var check inject.PersistentOutcome
		for _, r := range rs {
			r.applyPersistent(&check)
		}
		return persistentOutcomeEqual(check, part)
	})
	if err == nil {
		mergePersistentOutcome(&b.pout, part)
	}
	return blk, err
}

// seal is the tail Flush and FlushPersistent share: it checks that the
// chunk [frontier, end) streamed one record per position and that the
// live outcome folded as many, seals the records into the next block,
// checks that refolding the block reproduces the live outcome, appends
// the block durably, and advances the cursor.
func (b *batcher) seal(end, folded int64, refolds func([]TrialRecord) bool) (Block, error) {
	if int64(len(b.pending)) != end-b.frontier || folded != int64(len(b.pending)) {
		return Block{}, fmt.Errorf("service: %s: chunk [%d,%d) streamed %d records, outcome folded %d",
			b.id, b.frontier, end, len(b.pending), folded)
	}
	blk, err := sealBlock(b.seq, b.frontier, end, b.prev, b.trials, b.seqOrdered, b.pending)
	if err != nil {
		return Block{}, fmt.Errorf("service: %s: %w", b.id, err)
	}
	if !refolds(blk.Results) {
		return Block{}, fmt.Errorf("service: %s: block %d fold disagrees with live outcome", b.id, b.seq)
	}
	if err := b.store.Append(b.id, blk); err != nil {
		return Block{}, err
	}
	b.seq++
	b.prev = blk.Hash
	b.frontier = end
	b.pending = nil
	return blk, nil
}

// Frontier returns the durable grid frontier.
func (b *batcher) Frontier() int64 { return b.frontier }

// Outcome returns the durable aggregate folded so far.
func (b *batcher) Outcome() inject.Outcome { return b.outcome }

// PersistentOutcome returns the durable persistent aggregate folded so
// far (persistent-surface jobs).
func (b *batcher) PersistentOutcome() inject.PersistentOutcome { return b.pout }

// LastHash returns the latest chain hash.
func (b *batcher) LastHash() string { return b.prev }

// Blocks returns the persisted block count.
func (b *batcher) Blocks() int { return b.seq }

// mergeOutcome concatenates a later slice's aggregate onto an earlier
// one — the fold RunSlice guarantees matches an uninterrupted Run.
func mergeOutcome(into *inject.Outcome, part inject.Outcome) {
	into.Trials += part.Trials
	into.Top1SDC += part.Top1SDC
	into.Top5SDC += part.Top5SDC
	into.Deviations = append(into.Deviations, part.Deviations...)
}

// mergePersistentOutcome concatenates a later slice's persistent
// aggregate onto an earlier one — the fold RunPersistentSlice guarantees
// matches an uninterrupted RunPersistent (counters add, latency
// distributions concatenate in sequence order).
func mergePersistentOutcome(into *inject.PersistentOutcome, part inject.PersistentOutcome) {
	into.Sequences += part.Sequences
	into.Inferences += part.Inferences
	into.Detected += part.Detected
	into.DetectionLatencies = append(into.DetectionLatencies, part.DetectionLatencies...)
	into.FirstSDCLatencies = append(into.FirstSDCLatencies, part.FirstSDCLatencies...)
	into.SDCsBeforeDetection += part.SDCsBeforeDetection
	into.UndetectedSDC += part.UndetectedSDC
	into.Repairs += part.Repairs
	into.PostRepairOK += part.PostRepairOK
	into.DUEs += part.DUEs
}

// persistentOutcomeEqual compares persistent aggregates exactly; every
// field is integral, so == per field is bit-exact.
func persistentOutcomeEqual(a, b inject.PersistentOutcome) bool {
	if a.Sequences != b.Sequences || a.Inferences != b.Inferences || a.Detected != b.Detected ||
		a.SDCsBeforeDetection != b.SDCsBeforeDetection || a.UndetectedSDC != b.UndetectedSDC ||
		a.Repairs != b.Repairs || a.PostRepairOK != b.PostRepairOK || a.DUEs != b.DUEs {
		return false
	}
	return intsEqual(a.DetectionLatencies, b.DetectionLatencies) &&
		intsEqual(a.FirstSDCLatencies, b.FirstSDCLatencies)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// outcomeEqual compares aggregates bit-exactly (NaN-safe: deviations are
// compared as IEEE-754 bit patterns).
func outcomeEqual(a, b inject.Outcome) bool {
	if a.Trials != b.Trials || a.Top1SDC != b.Top1SDC || a.Top5SDC != b.Top5SDC || len(a.Deviations) != len(b.Deviations) {
		return false
	}
	for i := range a.Deviations {
		if math.Float64bits(a.Deviations[i]) != math.Float64bits(b.Deviations[i]) {
			return false
		}
	}
	return true
}
