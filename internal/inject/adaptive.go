package inject

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ranger/internal/graph"
	"ranger/internal/parallel"
	"ranger/internal/stats"
)

// Adaptive (stratified) campaign engine. Uniform campaigns spend the
// same number of trials on every region of the fault space, but SDC
// probability is wildly non-uniform across it: high-order exponent bits
// flip orders of magnitude more often into SDCs than mantissa bits, and
// small late layers behave nothing like wide early ones. Stratifying
// the space by (layer × bit-band), tracking a Wilson interval per
// stratum, and stopping each stratum as soon as its interval is tight
// enough reaches a target confidence with far fewer trials — the
// "same confidence, fewer trials" statistical engine of the ROADMAP,
// in the spirit of Relyzer-style stratified sampling and BinFI-style
// directed search (PAPERS.md).
//
// Determinism contract: trial t of stratum s always samples from the
// private stream adaptiveSeed(Seed, s, t), and rounds are allocated by
// a pure function of the per-stratum trial counts — so a fixed seed
// yields byte-identical outcomes at every worker count, and a resumed run that replays its durable per-stratum frontier
// continues exactly where the original would have.

// SamplingMode selects a campaign's sampling design; the zero value is
// the classic uniform grid.
type SamplingMode int

const (
	// SamplingUniform draws every trial uniformly over the fault space
	// (Run/RunSlice; the zero value).
	SamplingUniform SamplingMode = iota
	// AdaptiveStratified allocates trials round-robin across
	// (layer × bit-band) strata, each stratum stopping once its Wilson
	// CI half-width falls below the target.
	AdaptiveStratified
	// AdaptiveWorstCase is the directed mode: each round feeds the
	// still-open strata in order of their Wilson upper bound, so
	// high-order exponent bits and weakly protected layers — the strata
	// that could still hide a large SDC rate — resolve first.
	AdaptiveWorstCase
)

// DefaultCITarget is the per-stratum Wilson CI half-width adaptive
// campaigns drive toward when Campaign.CITarget is 0.
const DefaultCITarget = 0.05

// DefaultStrataBands is the number of bit-position bands per
// fault-space node when Campaign.Strata is 0.
const DefaultStrataBands = 4

// DefaultRoundTrials caps one adaptive round's allocation when
// AdaptiveRun.RoundTrials is 0: large enough to amortize the per-round
// clean passes, small enough that early stopping reacts quickly.
const DefaultRoundTrials = 256

// stratumQuantum is how many trials one pass of the round allocator
// hands each open stratum before moving to the next.
const stratumQuantum = 32

// stratumDef is one stratum of the sampling frame: a fault-space node
// crossed with an inclusive bit band. Its weight is the stratum's share
// of the uniform sampling measure (node elements × band bits).
type stratumDef struct {
	Band
	name   string
	weight float64
}

// adaptiveSeed derives the sampling seed for stratum trial (s, local).
// It mirrors trialSeed's Mix64 chain under a distinct domain constant,
// so adaptive streams never collide with uniform ones and depend only
// on the trial's stratum identity — not on rounds or workers.
func adaptiveSeed(seed int64, stratum, local int) int64 {
	h := parallel.Mix64(uint64(seed) ^ 0xA110C857A7A5EED)
	h = parallel.Mix64(h ^ uint64(stratum+1))
	h = parallel.Mix64(h ^ uint64(local+1))
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// buildStrata crosses the fault space's nodes with bands near-equal bit
// bands (high bits first; the first bits%bands bands take the extra
// bit) and weights each stratum by its share of the uniform measure.
func buildStrata(fs *FaultSpace, bits, bands int) []stratumDef {
	if bands > bits {
		bands = bits
	}
	if bands < 1 {
		bands = 1
	}
	type bitRange struct{ lo, hi int }
	bds := make([]bitRange, 0, bands)
	base, rem := bits/bands, bits%bands
	hi := bits - 1
	for b := 0; b < bands; b++ {
		w := base
		if b < rem {
			w++
		}
		bds = append(bds, bitRange{hi - w + 1, hi})
		hi -= w
	}
	nodes := fs.Nodes()
	defs := make([]stratumDef, 0, len(nodes)*len(bds))
	total := float64(fs.Total())
	for ni, name := range nodes {
		nw := float64(fs.NodeSize(ni)) / total
		for _, bd := range bds {
			defs = append(defs, stratumDef{
				Band:   Band{Node: ni, BitLo: bd.lo, BitHi: bd.hi},
				name:   name,
				weight: nw * float64(bd.hi-bd.lo+1) / float64(bits),
			})
		}
	}
	return defs
}

// StratumResult reports one stratum's accumulated evidence.
type StratumResult struct {
	// Surface names the fault surface the stratum samples ("activation"
	// for classic adaptive runs; "weight"/"quantparam" for stratified
	// persistent campaigns, whose strata cross surface nodes with bit
	// bands the same way).
	Surface string
	// Node and the bit band identify the stratum.
	Node         string
	BitLo, BitHi int
	// Weight is the stratum's share of the uniform sampling measure.
	Weight float64
	// Trials and SDCs are the evidence drawn there.
	Trials int
	SDCs   int
	// Estimate is the stratum's own Wilson estimate.
	Estimate stats.Proportion
	// Converged reports whether the stratum's CI half-width reached the
	// target.
	Converged bool
}

// AdaptiveOutcome extends Outcome with the stratified estimate and the
// per-stratum evidence of an adaptive campaign.
type AdaptiveOutcome struct {
	Outcome
	// Strata is the per-stratum evidence, in stratum order (node
	// execution order × bands, high bits first).
	Strata []StratumResult
	// Estimate is the post-stratified population SDC-rate estimate with
	// its combined 95% CI.
	Estimate stats.Proportion
	// CITarget is the per-stratum half-width target the run drove
	// toward; Converged reports whether every stratum reached it within
	// the budget.
	CITarget  float64
	Converged bool
	// Rounds is the number of live allocation rounds executed; Budget
	// the total trial budget (Trials × inputs).
	Rounds int
	Budget int64
}

// AdaptiveRun is a resumable adaptive campaign: rounds of stratified
// trials with sequential early stopping. The zero value is not usable;
// build one with NewAdaptiveRun, optionally replay a durable frontier
// through ReplayTrial, then call NextRound until Done.
type AdaptiveRun struct {
	strata
	c      *Campaign
	b      *backend
	budget int64

	seq     int64
	rounds  int
	out     Outcome
	started bool // a live round ran; replay is no longer allowed

	// RoundTrials caps one round's allocation; 0 means
	// DefaultRoundTrials. The rangerd service sets it to the job's
	// block size so round boundaries and durable blocks coincide.
	RoundTrials int
}

// sameSpace reports whether two fault spaces agree on nodes and sizes.
func sameSpace(a, b *FaultSpace) bool {
	return slices.Equal(a.nodes, b.nodes) && slices.Equal(a.sizes, b.sizes)
}

// NewAdaptiveRun validates the campaign, builds the execution backend,
// and derives the (layer × bit-band) strata from the fault space. The
// campaign's Adaptive mode must be set, its scenario must implement
// StratumScenario, and every input must induce the same fault space
// (same nodes, same sizes) — otherwise the strata would be
// ill-defined.
func (c *Campaign) NewAdaptiveRun(inputs []graph.Feeds) (*AdaptiveRun, error) {
	if err := c.validateAs(stratifiedMode, inputs); err != nil {
		return nil, err
	}
	b, err := c.newBackend(inputs)
	if err != nil {
		return nil, err
	}
	for i, feeds := range inputs {
		if b.spaces[i], err = c.faultSpace(b.plan, feeds); err != nil {
			return nil, err
		}
		if i > 0 && !sameSpace(b.spaces[0], b.spaces[i]) {
			return nil, fmt.Errorf("inject: fault space differs across inputs; strata are ill-defined")
		}
	}
	target, bands := c.stratifiedConfig()
	return &AdaptiveRun{
		strata: newStrata(buildStrata(b.spaces[0], c.bits(), bands), target),
		c:      c,
		b:      b,
		budget: c.GridSize(inputs),
	}, nil
}

// stratifiedConfig returns a stratified campaign's effective CI
// half-width target and bit bands per fault-space node.
func (c *Campaign) stratifiedConfig() (target float64, bands int) {
	target, bands = c.CITarget, c.Strata
	if target == 0 {
		target = DefaultCITarget
	}
	if bands == 0 {
		bands = DefaultStrataBands
	}
	return target, bands
}

// strata is a stratified design's frame and evidence: the stratum
// definitions, one Wilson accumulator per stratum, and the CI
// half-width target at which a stratum closes. The activation-surface
// AdaptiveRun and the stratified persistent engine share it.
type strata struct {
	defs   []stratumDef
	acc    []stats.Stratum
	target float64
}

// newStrata starts empty accumulators over defs, each weighted by its
// stratum's share of the uniform measure.
func newStrata(defs []stratumDef, target float64) strata {
	acc := make([]stats.Stratum, len(defs))
	for i := range acc {
		acc[i].Weight = defs[i].weight
	}
	return strata{defs: defs, acc: acc, target: target}
}

// converged reports whether every stratum's Wilson CI half-width is at
// or below the target.
func (st *strata) converged() bool {
	for i := range st.acc {
		if st.acc[i].HalfWidth() > st.target {
			return false
		}
	}
	return true
}

// open returns the indices of strata still above the target, in
// allocation order: stratum order for AdaptiveStratified, descending
// Wilson upper bound (then higher bit band, then stratum order) for
// AdaptiveWorstCase — the strata that could still hide the largest SDC
// rate drain the round's budget first.
func (st *strata) open(mode SamplingMode) []int {
	defs, acc, target := st.defs, st.acc, st.target
	open := make([]int, 0, len(acc))
	for i := range acc {
		if acc[i].HalfWidth() > target {
			open = append(open, i)
		}
	}
	if mode == AdaptiveWorstCase {
		his := make([]float64, len(open))
		for k, i := range open {
			_, his[k] = stats.Wilson(acc[i].K, acc[i].N)
		}
		ord := make([]int, len(open))
		for k := range ord {
			ord[k] = k
		}
		sort.SliceStable(ord, func(a, b int) bool {
			ka, kb := ord[a], ord[b]
			if his[ka] != his[kb] {
				return his[ka] > his[kb]
			}
			ia, ib := open[ka], open[kb]
			if defs[ia].BitHi != defs[ib].BitHi {
				return defs[ia].BitHi > defs[ib].BitHi
			}
			return ia < ib
		})
		sorted := make([]int, len(open))
		for k, o := range ord {
			sorted[k] = open[o]
		}
		open = sorted
	}
	return open
}

// round is the one round allocator of stratified campaigns, transient
// and persistent alike: it hands out up to n slots in repeated passes
// over the open strata (open), each pass giving a stratum up to
// stratumQuantum. Slot k takes global position seq+k, its stratum's
// band, and the stratum-local index (the stratum's folded trials plus
// those already allocated this round) as its trial, sampling from
// adaptiveSeed(seed, stratum, local). The allocation is a pure function
// of the per-stratum counts and seq, which is what makes stratified runs
// reproducible and resumable. It returns nil when n <= 0 or every
// stratum has closed.
func (st *strata) round(mode SamplingMode, seed, seq int64, n int) []slot {
	open := st.open(mode)
	if n <= 0 || len(open) == 0 {
		return nil
	}
	plan := make([]slot, 0, n)
	inRound := make([]int, len(st.defs))
	for len(plan) < n {
		for _, si := range open {
			for q := 0; q < stratumQuantum && len(plan) < n; q++ {
				local := st.acc[si].N + inRound[si]
				inRound[si]++
				plan = append(plan, slot{
					seq:     seq + int64(len(plan)),
					seed:    adaptiveSeed(seed, si, local),
					stratum: si,
					band:    &st.defs[si].Band,
					trial:   local,
				})
			}
		}
	}
	return plan
}

// results reports each stratum's evidence, in stratum order, and
// whether every stratum reached the target.
func (st *strata) results(surface string) ([]StratumResult, bool) {
	res := make([]StratumResult, len(st.defs))
	all := true
	for i, def := range st.defs {
		s := st.acc[i]
		conv := s.HalfWidth() <= st.target
		all = all && conv
		res[i] = StratumResult{
			Surface:   surface,
			Node:      def.name,
			BitLo:     def.BitLo,
			BitHi:     def.BitHi,
			Weight:    def.weight,
			Trials:    s.N,
			SDCs:      s.K,
			Estimate:  s.Proportion(),
			Converged: conv,
		}
	}
	return res, all
}

// Seq returns the number of trials folded so far (replayed plus live) —
// the durable frontier of an adaptive job.
func (ar *AdaptiveRun) Seq() int64 { return ar.seq }

// Done reports whether the run is finished: every stratum's Wilson CI
// half-width is at or below the target, or the budget is spent.
func (ar *AdaptiveRun) Done() bool {
	return ar.seq >= ar.budget || ar.converged()
}

func (ar *AdaptiveRun) roundTrials() int {
	if ar.RoundTrials > 0 {
		return ar.RoundTrials
	}
	return DefaultRoundTrials
}

// allocateRound plans the next round of min(RoundTrials, remaining
// budget) trials over the open strata (strata.round), trial t of a
// stratum replaying input t mod len(inputs). The plan depends only on
// the per-stratum counts and the global sequence position, so replaying
// a frontier restores exactly the state the allocator consumes.
func (ar *AdaptiveRun) allocateRound() []slot {
	plan := ar.round(ar.c.Adaptive, ar.c.Seed, ar.seq, int(min(ar.budget-ar.seq, int64(ar.roundTrials()))))
	for i := range plan {
		plan[i].input = plan[i].trial % len(ar.b.inputs)
	}
	return plan
}

// ReplayTrial folds one previously persisted trial back into the run —
// the adaptive resume primitive: replay the durable records in sequence
// order before the first live round and the engine continues exactly
// where the original run would have, because allocation depends only on
// the restored per-stratum counts. Replaying after a live round is an
// error.
func (ar *AdaptiveRun) ReplayTrial(stratum int, top1, top5, isReg bool, dev float64) error {
	if ar.started {
		return fmt.Errorf("inject: adaptive replay after live rounds")
	}
	if stratum < 0 || stratum >= len(ar.defs) {
		return fmt.Errorf("inject: replay stratum %d outside [0,%d)", stratum, len(ar.defs))
	}
	v := trialVerdict{top1: top1, top5: top5, dev: dev, isReg: isReg}
	v.apply(&ar.out)
	ar.acc[stratum].Add(ar.c.isSDC(v))
	ar.seq++
	return nil
}

// NextRound allocates and executes one round of stratified trials and
// returns the round's partial Outcome (the fold over just this round's
// trials, in allocation order — what durable consumers cross-check
// against their streamed records). Execution groups the round's trials
// by input (one clean pass each) and runs each group through the same
// depth-grouped worker shard as uniform campaigns; verdicts then fold
// in allocation order, so the Outcome is byte-identical at every worker
// count. A round is
// atomic: on error (including cancellation) nothing folds, mirroring
// the Run contract. OnTrial streams each trial with its Stratum and Seq
// filled in. A call when the run is Done is a no-op.
func (ar *AdaptiveRun) NextRound(ctx context.Context) (Outcome, error) {
	plan := ar.allocateRound()
	if len(plan) == 0 {
		return Outcome{}, nil
	}
	ar.started = true
	groups := make([][]slot, len(ar.b.inputs))
	for _, s := range plan {
		groups[s.input] = append(groups[s.input], s)
	}
	verdicts := make([]trialVerdict, len(plan))
	err := ar.b.runSlots(ctx, func(ii int) []slot { return groups[ii] },
		func(slots []slot, vs []trialVerdict, _ bool) {
			for k, s := range slots {
				verdicts[s.seq-ar.seq] = vs[k]
			}
		})
	if err != nil {
		return Outcome{}, err
	}
	var part Outcome
	for i, v := range verdicts {
		v.apply(&part)
		ar.acc[plan[i].stratum].Add(ar.c.isSDC(v))
	}
	ar.out.Trials += part.Trials
	ar.out.Top1SDC += part.Top1SDC
	ar.out.Top5SDC += part.Top5SDC
	ar.out.Deviations = append(ar.out.Deviations, part.Deviations...)
	ar.seq += int64(len(plan))
	ar.rounds++
	return part, nil
}

// Result assembles the run's outcome: the classic Outcome fold, the
// per-stratum evidence, and the post-stratified population estimate.
func (ar *AdaptiveRun) Result() AdaptiveOutcome {
	res := AdaptiveOutcome{
		Outcome:  ar.out,
		Estimate: stats.Stratified(ar.acc),
		CITarget: ar.target,
		Rounds:   ar.rounds,
		Budget:   ar.budget,
	}
	res.Strata, res.Converged = ar.results(ar.c.surface().Name())
	return res
}

// isSDC applies the campaign's SDC definition to a judged verdict:
// top-1 flip for classifiers, deviation above the regressor threshold
// for steering models.
func (c *Campaign) isSDC(v trialVerdict) bool {
	if v.isReg {
		return v.dev > regSDCThresholdDeg
	}
	return v.top1
}

// RunAdaptive executes the adaptive campaign to completion: rounds of
// stratified trials with per-stratum early stopping, ending when every
// stratum's Wilson CI half-width reaches CITarget or the
// Trials×len(inputs) budget is spent. Cancellation follows the Run
// contract: a cancelled campaign returns ctx.Err() and a zero outcome.
func (c *Campaign) RunAdaptive(ctx context.Context, inputs []graph.Feeds) (AdaptiveOutcome, error) {
	ar, err := c.NewAdaptiveRun(inputs)
	if err != nil {
		return AdaptiveOutcome{}, err
	}
	for !ar.Done() {
		if _, err := ar.NextRound(ctx); err != nil {
			return AdaptiveOutcome{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return AdaptiveOutcome{}, err
	}
	return ar.Result(), nil
}

// UniformTrialsToTarget measures the uniform-sampling baseline the
// adaptive engine is compared against: it draws classic uniform trials
// (the same streams Run would use) in chunks, classifies each trial
// into the stratum its primary site lands in, and reports how many
// trials it took until every stratum's Wilson CI half-width reached the
// campaign's CITarget — the same stopping criterion the adaptive run
// applies — plus whether it converged within the given trial cap. The
// campaign must be configured exactly like the adaptive run it is
// compared to (same Adaptive mode, CITarget, Strata); a single input is
// required so trial indices map directly to sampling streams.
func (c *Campaign) UniformTrialsToTarget(ctx context.Context, inputs []graph.Feeds, cap int64) (int64, bool, error) {
	if len(inputs) != 1 {
		return 0, false, fmt.Errorf("inject: uniform-to-target needs exactly one input, got %d", len(inputs))
	}
	if cap <= 0 {
		return 0, false, fmt.Errorf("inject: uniform-to-target cap = %d", cap)
	}
	ar, err := c.NewAdaptiveRun(inputs)
	if err != nil {
		return 0, false, err
	}
	fs := ar.b.spaces[0]
	nodeIdx := make(map[string]int, len(fs.Nodes()))
	for i, name := range fs.Nodes() {
		nodeIdx[name] = i
	}
	nBands := len(ar.defs) / len(fs.Nodes())
	uniform := newStrata(ar.defs, ar.target)
	// classify re-samples a trial's private stream and returns the
	// stratum its primary (first) site lands in. Calls arrive through
	// OnTrial, which the shard serializes, so the shared rng is safe.
	scen := c.scenario()
	rng := rand.New(&splitmixSource{})
	var buf []Site
	classify := func(trial int) int {
		rng.Seed(trialSeed(c.Seed, 0, trial))
		buf = scen.AppendSites(buf[:0], fs, c.bits(), rng, nil)
		s := buf[0]
		ni := nodeIdx[s.Node]
		for b := 0; b < nBands; b++ {
			d := ar.defs[ni*nBands+b]
			if s.Bit >= d.BitLo && s.Bit <= d.BitHi {
				return ni*nBands + b
			}
		}
		return ni*nBands + nBands - 1 // out-of-band bit (clamped scenarios): lowest band
	}
	uc := *c
	uc.Adaptive, uc.CITarget, uc.Strata = SamplingUniform, 0, 0
	uc.Trials = int(cap)
	uc.OnTrial = func(tr TrialResult) {
		sdc := tr.Top1SDC
		if tr.IsRegression {
			sdc = tr.Deviation > regSDCThresholdDeg
		}
		uniform.acc[classify(tr.Trial)].Add(sdc)
	}
	const chunk = 512
	done := int64(0)
	for done < cap {
		n := min(chunk, cap-done)
		if _, err := uc.RunSlice(ctx, inputs, done, done+n); err != nil {
			return 0, false, err
		}
		done += n
		if uniform.converged() {
			return done, true, nil
		}
	}
	return done, false, nil
}
