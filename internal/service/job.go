// Package service implements rangerd: fault-injection campaigns as a
// durable, observable long-running service.
//
// A submitted JobSpec names everything a campaign needs — model,
// scenario, protection, backend, trial grid — and the service runs it on
// a shared worker pool behind a bounded queue with backpressure. The
// trial grid executes as consecutive Campaign.RunSlice chunks; each
// completed chunk is persisted as one hash-chained block of per-trial
// records (append-only JSONL), so a killed daemon resumes every
// in-flight job from its last persisted block using the deterministic
// per-trial seed scheme and folds an aggregate Outcome byte-identical to
// an uninterrupted run. The chain's genesis hash commits to the job
// manifest, making published SDC rates tamper-evident and independently
// re-verifiable offline (rangerd verify).
package service

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"time"

	"ranger/internal/inject"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle states. A daemon restart moves interrupted running
// jobs back to StateQueued; terminal states are completed, failed, and
// cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final (no further execution).
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Job spec defaults.
const (
	DefaultProfileSamples = 32
	DefaultBlockTrials    = 256
)

// JobSpec describes one campaign job. The zero values of optional fields
// select the paper's primary configuration: one random bit flip per
// execution (bitflip), no protection, fp32 backend with a
// Q32 datapath, one input.
type JobSpec struct {
	// Model is a benchmark model name (lenet, vgg16, dave, ...).
	Model string `json:"model"`
	// Scenario is a registered fault-scenario name; empty selects
	// "bitflip". Scenarios act on the backend's stored word: the
	// fixed-point word on fp32, the int8 byte on int8.
	Scenario string `json:"scenario,omitempty"`
	// Faults is the per-execution fault multiplicity (default 1).
	Faults int `json:"faults,omitempty"`
	// Protect selects protection: "" or "none" runs the bare model,
	// "ranger" profiles restriction bounds over ProfileSamples training
	// samples and applies the Algorithm 1 transform.
	Protect string `json:"protect,omitempty"`
	// ProfileSamples sizes bounds profiling and int8 calibration
	// (default 32).
	ProfileSamples int `json:"profile_samples,omitempty"`
	// Backend selects the execution backend: "fp32" (default) or "int8"
	// (post-training quantized; faults strike stored int8 words).
	Backend string `json:"backend,omitempty"`
	// Format is the fp32 backend's fault encoding: "q32" (default) or
	// "q16". Ignored on int8.
	Format string `json:"format,omitempty"`
	// Trials is the number of injections per input.
	Trials int `json:"trials"`
	// Inputs is the number of training-split samples used as campaign
	// inputs (default 1), taken deterministically from the model's
	// dataset.
	Inputs int `json:"inputs,omitempty"`
	// Seed drives fault-site sampling; the per-trial streams are
	// hash(Seed, input, trial), the determinism resume relies on.
	Seed int64 `json:"seed,omitempty"`
	// Untrained skips zoo training and runs the deterministically
	// initialized untrained model — the mechanics mode tests and smokes
	// use to avoid training time. SDC rates are not meaningful.
	Untrained bool `json:"untrained,omitempty"`
	// BlockTrials overrides the daemon's trials-per-block durability
	// granularity for this job.
	BlockTrials int `json:"block_trials,omitempty"`
	// LaneWidth is accepted and ignored: campaigns run each trial as its
	// own batch-1 replay. The field is kept so that manifests sealed with
	// it still hash and verify, since a seal covers the canonical spec
	// JSON.
	LaneWidth int `json:"lane_width,omitempty"`
	// Adaptive selects stratified sampling with sequential early
	// stopping: "" (classic uniform grid), "stratified", or "worstcase".
	// Adaptive jobs treat Inputs×Trials as a budget and may complete
	// with fewer trials; block boundaries coincide with allocation
	// rounds and records carry (stratum, seq), the durable per-stratum
	// frontier resume replays.
	Adaptive string `json:"adaptive,omitempty"`
	// CITarget is the per-stratum Wilson CI half-width adaptive jobs
	// stop at (0 defaults to inject.DefaultCITarget).
	CITarget float64 `json:"ci_target,omitempty"`
	// Strata is the number of bit-position bands per fault-space node
	// (0 defaults to inject.DefaultStrataBands).
	Strata int `json:"strata,omitempty"`
	// Surface selects the fault surface: "activation" (transient, the
	// default), "weight" (a persistent stuck fault in stored weight
	// memory), or "quantparam" (a persistent fault in a quantized step's
	// scale/zero-point; int8 backend only). Persistent surfaces run
	// sequence campaigns: the grid is Trials sequences, each injecting
	// one fault and running SequenceLen inferences over the cycling
	// input set under the service's symptom detector.
	Surface string `json:"surface,omitempty"`
	// SequenceLen is the per-sequence inference budget of persistent
	// jobs (0 defaults to inject.DefaultSequenceLen).
	SequenceLen int `json:"sequence_len,omitempty"`
	// Repair enables detection-triggered scrub-from-golden repair in
	// persistent jobs; each scrub's post-repair replay is byte-checked
	// against the clean reference.
	Repair bool `json:"repair,omitempty"`
}

// Persistent reports whether the spec's surface is a persistent one
// (weight, quantparam): its job runs the sequence engine and its grid is
// Trials sequences. An empty or unknown surface is transient; validate
// rejects the unknown ones.
func (s JobSpec) Persistent() bool {
	surf, err := inject.NewSurface(s.Surface)
	return err == nil && surf.Persistent()
}

// withDefaults returns the spec with every optional field resolved, the
// canonical form the manifest persists (and the spec hash commits to).
func (s JobSpec) withDefaults(daemonBlock int) JobSpec {
	if s.Backend == "" {
		s.Backend = "fp32"
	}
	if s.Scenario == "" {
		s.Scenario = "bitflip"
	}
	if s.Faults <= 0 {
		s.Faults = 1
	}
	if s.Protect == "" {
		s.Protect = "none"
	}
	if s.ProfileSamples <= 0 {
		s.ProfileSamples = DefaultProfileSamples
	}
	if s.Format == "" && s.Backend != "int8" {
		s.Format = "q32"
	}
	if s.Inputs <= 0 {
		s.Inputs = 1
	}
	if s.BlockTrials <= 0 {
		s.BlockTrials = daemonBlock
	}
	if s.BlockTrials <= 0 {
		s.BlockTrials = DefaultBlockTrials
	}
	if s.Adaptive != "" {
		if s.CITarget == 0 {
			s.CITarget = inject.DefaultCITarget
		}
		if s.Strata == 0 {
			s.Strata = inject.DefaultStrataBands
		}
	}
	if s.Surface == "" {
		s.Surface = inject.DefaultSurface().Name()
	}
	// Only an unset sequence length defaults; a negative one is a caller
	// error validate reports.
	if s.Persistent() && s.SequenceLen == 0 {
		s.SequenceLen = inject.DefaultSequenceLen
	}
	return s
}

// validate rejects specs the runner could not execute. It assumes
// withDefaults has run.
func (s JobSpec) validate() error {
	if s.Model == "" {
		return fmt.Errorf("service: spec: model is required")
	}
	if s.Trials <= 0 {
		return fmt.Errorf("service: spec: trials = %d", s.Trials)
	}
	if _, err := inject.NewScenario(s.Scenario, s.Faults); err != nil {
		return fmt.Errorf("service: spec: %w", err)
	}
	switch s.Backend {
	case "fp32":
		if s.Format != "q32" && s.Format != "q16" {
			return fmt.Errorf("service: spec: format %q (want q32 or q16)", s.Format)
		}
	case "int8":
	default:
		return fmt.Errorf("service: spec: backend %q (want fp32 or int8)", s.Backend)
	}
	switch s.Protect {
	case "none", "ranger":
	default:
		return fmt.Errorf("service: spec: protect %q (want none or ranger)", s.Protect)
	}
	if s.LaneWidth < 0 {
		return fmt.Errorf("service: spec: lane width = %d", s.LaneWidth)
	}
	switch s.Adaptive {
	case "", "stratified", "worstcase":
	default:
		return fmt.Errorf("service: spec: adaptive %q (want stratified or worstcase)", s.Adaptive)
	}
	if s.Adaptive != "" {
		if s.CITarget < 0 || s.CITarget >= 1 {
			return fmt.Errorf("service: spec: ci_target %v outside (0,1)", s.CITarget)
		}
		if s.Strata < 0 {
			return fmt.Errorf("service: spec: strata = %d", s.Strata)
		}
	}
	surf, err := inject.NewSurface(s.Surface)
	if err != nil {
		return fmt.Errorf("service: spec: %w", err)
	}
	if surf.Persistent() {
		if s.Adaptive != "" {
			// The stratified persistent engine allocates in-process; its
			// per-stratum frontier is not resumable from a chain yet, so
			// the durable service refuses the combination rather than run
			// a job it could not recover.
			return fmt.Errorf("service: spec: adaptive sampling is not supported on persistent surface %q", s.Surface)
		}
		if s.Surface == "quantparam" && s.Backend != "int8" {
			return fmt.Errorf("service: spec: surface quantparam needs the int8 backend")
		}
		if s.SequenceLen <= 0 {
			return fmt.Errorf("service: spec: sequence_len = %d", s.SequenceLen)
		}
	} else {
		if s.SequenceLen != 0 {
			return fmt.Errorf("service: spec: sequence_len is only meaningful on persistent surfaces")
		}
		if s.Repair {
			return fmt.Errorf("service: spec: repair is only meaningful on persistent surfaces")
		}
	}
	return nil
}

// Manifest is a job's immutable identity, written once at submission.
// SpecHash — the SHA-256 of the manifest's canonical JSON with the hash
// field empty — is the genesis hash of the job's block chain, so the
// chain commits to exactly this spec and grid.
type Manifest struct {
	ID      string  `json:"id"`
	Created string  `json:"created"` // RFC3339
	Spec    JobSpec `json:"spec"`
	// GridTotal is the linearized trial-grid size: Inputs * Trials for
	// transient surfaces, Trials sequences for persistent ones (inputs
	// cycle inside each sequence instead of multiplying the grid).
	GridTotal int64  `json:"grid_total"`
	SpecHash  string `json:"spec_hash,omitempty"`
}

// seal computes and stores the manifest's spec hash.
func (m *Manifest) seal() error {
	m.SpecHash = ""
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	m.SpecHash = hex.EncodeToString(sum[:])
	return nil
}

// VerifySeal recomputes the spec hash and reports tampering.
func (m Manifest) VerifySeal() error {
	want := m.SpecHash
	if err := (&m).seal(); err != nil {
		return err
	}
	if m.SpecHash != want {
		return fmt.Errorf("service: manifest %s: spec hash mismatch (stored %s, computed %s)", m.ID, want, m.SpecHash)
	}
	return nil
}

// NewManifest builds a sealed manifest for a validated spec.
func NewManifest(spec JobSpec, now time.Time) (Manifest, error) {
	id, err := newJobID()
	if err != nil {
		return Manifest{}, err
	}
	total := int64(spec.Inputs) * int64(spec.Trials)
	if spec.Persistent() {
		total = int64(spec.Trials)
	}
	m := Manifest{
		ID:        id,
		Created:   now.UTC().Format(time.RFC3339),
		Spec:      spec,
		GridTotal: total,
	}
	if err := m.seal(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// jobIDPattern is the store-safe job-id alphabet.
var jobIDPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)

// ValidJobID reports whether id is a well-formed job id (and safe as a
// store path component).
func ValidJobID(id string) bool { return jobIDPattern.MatchString(id) }

// newJobID returns a fresh random job id.
func newJobID() (string, error) {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: job id: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// OutcomeRecord is the JSON-safe persisted form of an aggregate Outcome.
// Deviations are stored as IEEE-754 bit patterns because they can be
// +Inf (a NaN steering output judges as infinite deviation), which JSON
// numbers cannot carry — and because bits, unlike decimal re-rendering,
// are trivially byte-exact.
type OutcomeRecord struct {
	Trials        int      `json:"trials"`
	Top1SDC       int      `json:"top1_sdc"`
	Top5SDC       int      `json:"top5_sdc"`
	DeviationBits []uint64 `json:"deviation_bits,omitempty"`
}

// RecordOutcome converts an aggregate campaign Outcome.
func RecordOutcome(o inject.Outcome) OutcomeRecord {
	r := OutcomeRecord{Trials: o.Trials, Top1SDC: o.Top1SDC, Top5SDC: o.Top5SDC}
	for _, d := range o.Deviations {
		r.DeviationBits = append(r.DeviationBits, math.Float64bits(d))
	}
	return r
}

// Outcome converts back to the campaign Outcome, bit-exactly.
func (r OutcomeRecord) Outcome() inject.Outcome {
	o := inject.Outcome{Trials: r.Trials, Top1SDC: r.Top1SDC, Top5SDC: r.Top5SDC}
	for _, b := range r.DeviationBits {
		o.Deviations = append(o.Deviations, math.Float64frombits(b))
	}
	return o
}

// PersistentOutcomeRecord is the JSON-safe persisted form of an
// aggregate PersistentOutcome. Every field is integral, so JSON
// round-trips are exact by construction.
type PersistentOutcomeRecord struct {
	Sequences           int64 `json:"sequences"`
	Inferences          int64 `json:"inferences"`
	Detected            int   `json:"detected"`
	DetectionLatencies  []int `json:"detection_latencies,omitempty"`
	FirstSDCLatencies   []int `json:"first_sdc_latencies,omitempty"`
	SDCsBeforeDetection int   `json:"sdcs_before_detection,omitempty"`
	UndetectedSDC       int   `json:"undetected_sdc,omitempty"`
	Repairs             int   `json:"repairs,omitempty"`
	PostRepairOK        int   `json:"post_repair_ok,omitempty"`
	DUEs                int   `json:"dues,omitempty"`
}

// RecordPersistentOutcome converts an aggregate persistent campaign
// outcome.
func RecordPersistentOutcome(o inject.PersistentOutcome) PersistentOutcomeRecord {
	return PersistentOutcomeRecord{
		Sequences:           o.Sequences,
		Inferences:          o.Inferences,
		Detected:            o.Detected,
		DetectionLatencies:  o.DetectionLatencies,
		FirstSDCLatencies:   o.FirstSDCLatencies,
		SDCsBeforeDetection: o.SDCsBeforeDetection,
		UndetectedSDC:       o.UndetectedSDC,
		Repairs:             o.Repairs,
		PostRepairOK:        o.PostRepairOK,
		DUEs:                o.DUEs,
	}
}

// Outcome converts back to the campaign PersistentOutcome.
func (r PersistentOutcomeRecord) Outcome() inject.PersistentOutcome {
	return inject.PersistentOutcome{
		Sequences:           r.Sequences,
		Inferences:          r.Inferences,
		Detected:            r.Detected,
		DetectionLatencies:  r.DetectionLatencies,
		FirstSDCLatencies:   r.FirstSDCLatencies,
		SDCsBeforeDetection: r.SDCsBeforeDetection,
		UndetectedSDC:       r.UndetectedSDC,
		Repairs:             r.Repairs,
		PostRepairOK:        r.PostRepairOK,
		DUEs:                r.DUEs,
	}
}

// Status is a job's mutable progress record, atomically replaced after
// every persisted block and state change.
type Status struct {
	State State `json:"state"`
	// Frontier is the durable linearized grid position: every trial in
	// [0, Frontier) is persisted in the chain. Execution resumes here.
	Frontier int64 `json:"frontier"`
	// Blocks is the number of persisted chain blocks.
	Blocks int `json:"blocks"`
	// LastHash is the hash of the latest block (the manifest's spec hash
	// while the chain is empty); the final value is the job's published,
	// re-verifiable result digest.
	LastHash string `json:"last_hash"`
	// Error carries the failure cause for StateFailed.
	Error string `json:"error,omitempty"`
	// Outcome is the aggregate result, set when a transient-surface job
	// completes; persistent-surface jobs set Persistent instead.
	Outcome *OutcomeRecord `json:"outcome,omitempty"`
	// Persistent is the aggregate sequence result of a completed
	// persistent-surface job.
	Persistent *PersistentOutcomeRecord `json:"persistent,omitempty"`
	// UpdatedUnix is the wall-clock time of the last status write.
	UpdatedUnix int64 `json:"updated_unix"`
}

// TrialRecord is one persisted trial result. Deviation is stored as
// float64 bits (see OutcomeRecord). Adaptive jobs additionally carry
// the trial's stratum and its global allocation sequence position
// (Trial is then the stratum-local index). Persistent jobs persist one
// record per sequence: Seq is the sequence's grid position and the
// persistent fields carry its detection/SDC/repair result.
type TrialRecord struct {
	Input   int    `json:"input"`
	Trial   int    `json:"trial"`
	Stratum int    `json:"stratum,omitempty"`
	Seq     int64  `json:"seq,omitempty"`
	Top1    bool   `json:"top1,omitempty"`
	Top5    bool   `json:"top5,omitempty"`
	Reg     bool   `json:"reg,omitempty"`
	DevBits uint64 `json:"dev_bits,omitempty"`

	// Persistent-sequence fields (surface weight/quantparam jobs only).
	Node     string `json:"node,omitempty"`
	Detected bool   `json:"det,omitempty"`
	Latency  int    `json:"lat,omitempty"`
	SDCs     int    `json:"sdcs,omitempty"`
	FirstSDC int    `json:"fsdc,omitempty"`
	Repaired bool   `json:"repaired,omitempty"`
	RepairOK bool   `json:"repair_ok,omitempty"`
	Inf      int    `json:"inf,omitempty"`
	DUE      bool   `json:"due,omitempty"`
}

// NewTrialRecord converts a streamed campaign TrialResult.
func NewTrialRecord(tr inject.TrialResult) TrialRecord {
	r := TrialRecord{Input: tr.Input, Trial: tr.Trial, Stratum: tr.Stratum, Seq: tr.Seq, Top1: tr.Top1SDC, Top5: tr.Top5SDC, Reg: tr.IsRegression}
	if tr.IsRegression {
		r.DevBits = math.Float64bits(tr.Deviation)
	}
	return r
}

// NewSequenceRecord converts a streamed persistent SequenceResult. Trial
// mirrors the sequence index for readability; Seq is the chain position.
func NewSequenceRecord(sr inject.SequenceResult) TrialRecord {
	return TrialRecord{
		Trial:    int(sr.Sequence),
		Seq:      sr.Sequence,
		Node:     sr.Node,
		Detected: sr.Detected,
		Latency:  sr.DetectLatency,
		SDCs:     sr.SDCs,
		FirstSDC: sr.FirstSDC,
		Repaired: sr.Repaired,
		RepairOK: sr.PostRepairOK,
		Inf:      sr.Inferences,
		DUE:      sr.DUE,
	}
}

// sequenceResult converts a persistent record back to its campaign form.
func (r TrialRecord) sequenceResult() inject.SequenceResult {
	return inject.SequenceResult{
		Sequence:      r.Seq,
		Node:          r.Node,
		Detected:      r.Detected,
		DetectLatency: r.Latency,
		SDCs:          r.SDCs,
		FirstSDC:      r.FirstSDC,
		Repaired:      r.Repaired,
		PostRepairOK:  r.RepairOK,
		Inferences:    r.Inf,
		DUE:           r.DUE,
		Stratum:       -1,
	}
}

// pos returns the record's linearized chain position: the (input, trial)
// grid position for uniform campaigns with the given per-input trial
// count, or the sequence position for adaptive and persistent campaigns
// (whose order is the allocator's or the sequence grid's, not a
// rectangular input×trial grid's).
func (r TrialRecord) pos(trials int, seqOrdered bool) int64 {
	if seqOrdered {
		return r.Seq
	}
	return int64(r.Input)*int64(trials) + int64(r.Trial)
}

// apply folds the record into an aggregate Outcome exactly as
// Campaign.Run folds the live verdict.
func (r TrialRecord) apply(o *inject.Outcome) {
	if r.Top1 {
		o.Top1SDC++
	}
	if r.Top5 {
		o.Top5SDC++
	}
	if r.Reg {
		o.Deviations = append(o.Deviations, math.Float64frombits(r.DevBits))
	}
	o.Trials++
}

// applyPersistent folds a persistent sequence record through the
// campaign's own fold, so the chain refold is byte-identical to the live
// PersistentOutcome.
func (r TrialRecord) applyPersistent(o *inject.PersistentOutcome) {
	r.sequenceResult().Apply(o)
}
