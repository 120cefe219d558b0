// Package ranger is a from-scratch Go reproduction of "A Low-cost Fault
// Corrector for Deep Neural Networks through Range Restriction"
// (Chen, Li, Pattabiraman — DSN 2021), exposed through a single public
// facade.
//
// Ranger protects DNNs from hardware transient faults (soft errors) by
// inserting range-restriction operators after activation layers and the
// downstream operators that inherit their bounds. Out-of-range values —
// the signature of SDC-causing bit flips — are truncated back into the
// profiled range, turning critical faults into benign ones that the
// DNN's inherent resilience absorbs, with no re-execution and negligible
// overhead.
//
// # Public API
//
// This root package is the one supported surface; external programs (and
// the cmd/ tools and examples/ in this repository) import only it:
//
//   - Models and data: LoadModel / BuildModel / DefaultZoo load the
//     eight benchmark DNNs (trained and cached on first use);
//     LoadDataset / DatasetFor return their deterministic synthetic
//     datasets.
//   - Protection: Profile derives restriction bounds from training data
//     (§III-C step 1) and Protect inserts the Algorithm 1 clip operators.
//   - Campaigns: Campaign runs TensorFI-style fault injection with a
//     cancellable context; OnTrial or Stream deliver per-trial results
//     while long campaigns run, and outcomes are byte-identical at every
//     worker count for a fixed seed. Campaigns with Campaign.Adaptive
//     set run through RunAdaptive's sequential stratified design (see
//     the adaptive campaign lifecycle below).
//   - Fault scenarios: the fault model is pluggable. A Scenario samples
//     sites and corrupts a stored word whose width the backend decides
//     (the fixed-point width on fp32, 8 bits on int8), so one model
//     serves both backends. BitFlips, ConsecutiveBits, RandomValue,
//     StuckAt and the multi-word Burst ship built in, live in a
//     name-keyed registry (NewScenario / ScenarioNames), and new models
//     register with RegisterScenario.
//   - Fault surfaces: where faults live is pluggable too. The default
//     ActivationSurface is the paper's transient model; WeightSurface
//     and QuantParamSurface are persistent — the fault stays in stored
//     state across a sequence of inferences, run via RunPersistent with
//     detection-triggered repair (see the persistent fault-surface
//     lifecycle below). Surfaces live in their own registry (NewSurface
//     / SurfaceNames / RegisterSurface / ErrUnknownSurface).
//   - Protection techniques: Ranger and every Table VI baseline (TMR,
//     selective duplication, symptom-based, ML-based, Tanh swap, ABFT)
//     implement one Protector interface behind a second registry
//     (NewProtector / ProtectorNames / RegisterProtector).
//   - Compiled plans: Model.Compile / CompileGraph build an immutable
//     execution Plan — fetch-restricted schedule, fused elementwise
//     chains (MatMul/Conv + BiasAdd + activation + RangerClip in one
//     loop), and liveness-planned buffers — run via CompiledModel.Run /
//     RunBatch with per-worker PlanStates. Mis-shaped feeds fail early
//     with ErrFeedShape.
//   - Quantization: Calibrate profiles per-operator value ranges and
//     Model.Quantize compiles the model to an int8 plan (QuantizedModel)
//     — the deployed numeric format, whose stored int8 words every
//     fault scenario can strike.
//   - Experiments: RunExperiment regenerates any table or figure of the
//     paper's evaluation by id (ExperimentIDs), plus int8-backend SDC
//     rates ("int8sdc") and the adaptive and persistent campaign
//     sweeps. Inference latency and protection overhead are timed by
//     the repository benchmark (bench/, serve ranger_ratio_*).
//   - Service: NewService runs campaign JobSpecs durably on a bounded
//     worker queue — every completed trial block persists as a
//     hash-chained record, killed daemons resume byte-identically, and
//     VerifyJobChain re-validates results offline. NewServiceHandler is
//     the HTTP face cmd/rangerd serves.
//
// A minimal protect-and-measure pipeline:
//
//	m, _ := ranger.LoadModel("lenet")
//	bounds, _ := ranger.Profile(m, 32)
//	protected, _, _ := ranger.Protect(m, bounds, ranger.ProtectOptions{})
//	c := &ranger.Campaign{Model: protected, Trials: 1000}
//	out, _ := c.Run(ctx, inputs)
//
// # Compile/run lifecycle and fusion rules
//
// Graph execution is compile-once/run-many. Compiling analyses the
// graph a single time — topological schedule restricted to the fetch
// ancestors, output-shape inference, liveness-based buffer-slot
// assignment — and a fusion pass folds chains of elementwise operators
// into their producer's kernel so the activation and Ranger's clamp run
// in the same loop. A node is non-fusable (kept materialized, its exact
// value delivered to hooks) when it is a fault-injection target, an
// observation/hook subject, a profiled bounds-collection output, a
// fetch, or has multiple consumers. Campaign.Run, RunWithDetector (a
// campaign with Campaign.Detector set), profiling, RunBatch, and the
// experiment harness all execute through
// plans; fused and unfused execution are bit-identical to the per-call
// Executor at every worker count.
//
// # Quantization lifecycle
//
// The int8 backend turns a profiled (optionally protected) model into a
// post-training-quantized deployment in three steps:
//
//	bounds, _ := ranger.Profile(m, 32)                  // 1. profile ACT bounds
//	protected, _, _ := ranger.Protect(m, bounds, ...)   //    and insert Ranger
//	calib, _ := ranger.Calibrate(protected, 32)         // 2. calibrate every op
//	qm, _ := protected.Quantize(calib)                  // 3. compile to int8
//	out, _ := qm.Run(feeds)                             // float in, float out
//
// Calibrate is the Profiler pointed at every operator: the per-node
// min/max become per-tensor int8 scale/zero-point. Quantize rewrites
// the compiled plan — weights pre-quantized symmetric, activations
// asymmetric, MatMul/Conv2D as int8 GEMMs with int32 accumulation
// (conv computes neighbouring output pixels in pairs, both pixels'
// operands packed into one int64 so one 64-bit multiply yields two
// exact products; the fp32 conv pairs the same pixels, loading each
// weight row once for both), elementwise operators and reshapes as
// 256-entry lookup tables, and the residual Add (and a standalone
// BiasAdd) as dequantize → float epilogue → requantize over blocks of
// elements — with quantize/dequantize nodes at the graph
// boundaries, reusing the float plan's shape layouts and liveness-based
// buffer reuse.
//
// The fused epilogue folds into the requantization that writes each
// int8 output: bias becomes an int32 accumulator offset, and ReLU and
// RangerClip become the clamp limits of the saturating write-back. A
// profiled ACT bound therefore maps to a pair of int8 clamp limits
// computed once at quantize time — range restriction in the quantized
// domain costs literally nothing at run time (the bench/ serve
// workload's ranger_ratio_int8 times it against the plain int8 plan;
// rangerbench -exp int8sdc reports the int8 SDC rates).
//
// Campaigns switch to the int8 backend by setting Campaign.Calibration;
// the campaign's scenario then acts on the stored int8 words — the
// fault model the deployed format actually faces. Because a bit flip in
// an int8 word is bounded by the tensor's quantization range,
// quantization itself acts as a mild range restriction, and measured
// SDC rates are accordingly lower than fp32's. Ranger's clamps add
// nothing to it when bounds and calibration come from the same samples:
// each folded clamp limit equals the saturation it folds into, so the
// protected int8 model computes exactly what the plain one does
// (TestQuantizedZooOutputsPinned), and the clamps lower int8 SDC rates
// only when they themselves are fault sites.
//
// # Incremental campaign lifecycle
//
// Campaign trials execute by checkpointed window replay: a fault at
// plan step k leaves every earlier step byte-identical to the clean
// pass, and a flipped element differs in one pixel, which each later
// step spreads only as far as its receptive field. Per input, the
// campaign first sizes the fault space from the compiled plan's
// inferred output shapes (no extra pass: nothing executes before the
// clean pass), then runs the clean pass once and checkpoints every
// intermediate value still live past its producing step (one clone per
// value, derived from the plan's liveness analysis). Each trial records
// its struck steps and elements (graph.Strikes), restores the live set
// at the earliest struck step, and replays only the fault's forward
// cone (Plan.RunCone, QPlan.RunCone), tracking for every value the
// rows × columns window of pixels that may differ from the
// checkpoint's. A step with clean inputs binds the checkpoint's value;
// a struck step with clean inputs copies it and lets the hook corrupt
// the copy; any other step copies it and recomputes only the output
// window its differing inputs reach (graph.WindowOp maps windows for
// Conv2D, the pools, Add, Concat and the elementwise ops, whose one
// fp32 kernel, PlannedOp.EvalInto, and int8 kernel take the window;
// other ops recompute the whole value). The window is then compared with the clean value and shrunk
// to the pixels that actually differ, and replay stops once no
// differing value is still read. A fault the operators absorb
// bit-exactly is reported as TrialResult.Masked; on the trained zoo's
// plain models (seed 1, one validation input) 14–67% of fp32
// single-bit-flip trials are and 35–100% of int8 ones, and window
// replay computes 0.7–6.4% (fp32) and 1.1–14.1% (int8) of the output
// elements a suffix replay would. Struck elements are corrupted in
// place with element-level save/restore instead of tensor cloning, and
// each worker's trial block is grouped by injection depth; the trial
// loop is allocation-free in the steady state. Outcomes stay
// byte-identical to full replay — and to the pre-plan executor — at
// every worker count on both backends: trials are judged into
// trial-indexed slots and reduced in trial order regardless of the
// depth-grouped execution order.
//
// One engine runs every campaign. A campaign's own fields select its
// mode: a persistent Surface a sequence campaign; otherwise a set
// Adaptive a stratified one, a set Detector a detector one, and anything
// else a uniform one. Each mode has its entry points — Run/RunSlice,
// RunWithDetector, RunAdaptive, RunPersistent/RunPersistentSlice — which
// reject a campaign of another mode and any setting the mode does not
// apply. Each builds one backend — the plan compiled once, quantized once
// when Calibration is set, and the clean checkpoints and references —
// and runs its slots on one shard loop, which owns sharding,
// cancellation, per-slot errors and the serialized OnTrial/OnSequence
// stream. Transient trials, uniform, stratified or detector, run through
// one per-input loop (prepare the input, run its slots, fold in slot
// order), and stratified trials and sequences share one round
// allocator. A slot is a transient
// trial or a persistent sequence, and a transient trial is a
// one-inference sequence with nothing persisted: every slot draws its
// sites from its private stream, plants them on a worker, infers from
// the checkpoint, and scrubs the worker back to golden. One worker type
// per surface and backend implements that plant/infer/scrub interface
// (activation fp32 and int8, weight fp32 and int8, quantparam); the
// trial body and the sequence body are the only per-kind code.
//
// Detector campaigns (Campaign.Detector set on the transient surface,
// run by RunWithDetector) run on the same workers: the
// detector observes every node, so each of their trials replays every
// step from step 0 of the checkpoint (Plan.RunFrom) and keeps slot
// order. The false-positive check watches the clean pass that is
// checkpointed (Plan.CheckpointHook), so each input runs one clean
// inference. The cost is one clean copy of the live activations of the
// input in flight: 0.09 MB (lenet) to 4.06 MB (resnet18) at batch 1.
// Transient campaigns hold one input's checkpoint at a time.
//
// # Lane-batched execution
//
// Every kernel in this repository is lane-wise over a leading batch
// axis: it never mixes values across lanes, and each lane's reduction
// order matches the batch-1 kernel, so lane l of a B-batched run is
// bit-identical to its own batch-1 run (int8 kernels accumulate in
// exact int32 arithmetic, which is order-free). Placeholders declare
// their batch dimension as 0 ("any"), so the same compiled plan accepts
// [1, ...] and [B, ...] feeds.
//
// RunBatch (graph-level and on CompiledModel / QuantizedModel) runs
// each feed set on its own, one plan run per feed, with the feeds
// sharded across workers that each own a PlanState; a caller who wants
// one batched pass stacks its samples into a [B, ...] feed itself.
// Fault campaigns do not batch: each trial is one batch-1 cone replay.
//
// # Convolution kernels
//
// Conv2D runs as an implicit GEMM (tensor.ConvInto and tensor.QConvInto,
// and their window forms for cone replay): each output pixel reads its
// window's valid taps straight from the NHWC input, and two neighbouring
// pixels of one output row with the same valid window are computed as a
// pair. The path is chosen once, from the CPU: on amd64 hosts that
// report AVX2 (CPUID, with the YMM register state enabled per XGETBV),
// every convolution with at least 4 output channels runs Go-assembly
// block kernels. For a pixel or a pair, each 16- or 8-wide block of
// output channels (4-wide below 8 channels) keeps its accumulators in
// vector registers across every tap of the window and stores them once;
// when the channel count is not a multiple of the block width, the last
// block overlaps the one before it and recomputes the shared channels
// bit for bit.
//
// The fp32 blocks multiply with VMULPS and add with VADDPS, taps in
// ascending order from +0, and never use a fused multiply-add: Go
// compiles the portable kernels' a*w + v as a rounded multiply and a
// rounded add (at the default GOAMD64 level), so every output element
// sees the same float32 operations in the same order on both paths. The
// blocks add every tap of the window, zero inputs included, where the
// portable kernels skip taps whose inputs are zero. An added ±0·w
// changes nothing: the sum starts at +0, an add returns -0 only when
// both operands are -0, so the sum is never -0, and adding ±0 to it
// leaves it as it is. The exception is w = ±Inf or NaN, where 0·w is a
// NaN, so a pixel whose output row holds a NaN (the kernels flag NaN
// lanes as they store) is recomputed by the portable kernel, and the
// results are bit-identical, NaN payloads included. The int8 kernels
// first write the window's taps x-za as 16-bit values in int32 lanes
// (|x-za| <= 255 for a zero point in int8), then sign-extend the
// weights with VPMOVSXBD and accumulate with VPMADDWD, whose second
// product is 0·w, so each lane gains exactly (x-za)·w, and VPADDD: the
// wrapping int32 arithmetic of the portable kernels, so their sums are
// exact whatever the order. Before the
// first pixel, the Go side checks once per call that the input, kernel
// and output slices cover every address the assembly may touch.
//
// Hosts without AVX2, every non-amd64 build, convolutions with fewer
// than 4 output channels and int8 zero points outside int8 run the
// pure-Go kernels. They stay as the
// portable path and as the oracle the tensor parity tests compare the
// assembly against (tests switch paths through an unexported package
// variable, and other packages' tests through tensor.ForEachKernelPath;
// no option, flag or environment variable selects it). The dense GEMMs
// have no assembly path: in traced serve runs on a 2-vCPU Xeon VM with
// the block kernels, the fp32 matmul steps took about 2% of the conv
// steps' time (0.011–0.012 ms against 0.54–0.58 ms).
//
// # Elementwise and pooling kernels
//
// The same CPU check picks the per-element kernels. The fused
// bias → ReLU → clamp epilogue and the unfused BiasAdd, ReLU and
// default-policy RangerClip steps (tensor.AddBias, tensor.Relu,
// tensor.Clamp) run one AVX2 pass over a channel-aligned span. The bias
// add is VADDPS with the value's lane first, the scalar v + b. ReLU is
// VMAXPS(v, +0), which is v > 0 ? v : +0, so NaN and -0 give +0 like the
// scalar !(v > 0). The clamp is lo > v ? lo : v and then
// hi < v ? hi : v, which is the scalar "if v < lo, else if v > hi" as
// long as lo <= hi: bounds that fail that test (inverted or NaN) take
// the Go loop. Channel counts that are not a multiple of 8 finish each
// pixel with masked lanes.
//
// Max pooling, fp32 and int8, runs channel-contiguous: each output
// pixel's row of maxima starts at -Inf (on int8, as the first valid
// tap's input row, or -128 when the window is wholly in padding) and
// folds in the input row of every valid tap in ascending (ky, kx) order
// with the strict src > dst rule (tensor.MaxInto: VMAXPS with the tap
// first; tensor.QMaxInto: VPMAXSB), so each channel sees the
// comparisons of a per-channel walk in the same order: ties keep the
// earlier tap, NaN never wins and a window wholly in padding stays
// -Inf. The int8 row is then mapped through the lookup table in place.
// tensor.Lut classifies each table once, when its kernel is built: an
// identity table (in the benchmark's plans of the trained zoo: every
// max-pool and reshape table, half of squeezenet's concat stripes and
// every standalone clamp of the campaign plans) maps by copying, and in
// place not at all.
//
// The int8 float leg, tensor.QEpilogue, serves the kernels whose result
// is not a bias → ReLU → clamp requantization: the residual Add, a
// standalone BiasAdd (its bias as the first stage) and the int8 GEMMs
// whose epilogue holds a Tanh, Atan, ELU or Scale stage. The epilogue
// is compiled once, runs of bias?/ReLU?/clamp? stages into one pass
// each, and works on blocks of up to 256 values in a stack buffer, each
// stage looping over the block instead of dispatching per element. An
// Add under a ReLU?/clamp? epilogue runs one fused AVX2 pass; a BiasAdd
// and the GEMM heads dequantize the block (VPMOVSXBD, VPSUBD, VCVTDQ2PS,
// VMULPS), run the stages (the canonical ones on the epilogue kernel)
// and quantize it like the feed. Every path matches the per-element
// loop it replaced, which stays as the fallback and the oracle (and
// runs an Add under any other epilogue, which no zoo model has).
//
// The int8 boundary runs on the same check. tensor.Requant, the
// canonical bias → ReLU → clamp requantize write-back of the int8 conv
// and matmul kernels (one call per output pixel, pixel pair or matmul
// row), computes zo + float32(acc - corr)·msc with VPSUBD, VCVTDQ2PS,
// VMULPS and VADDPS, never a fused multiply-add; tensor.QuantizeInto,
// which quantizes the float feed of every int8 run, computes
// v/scale + zero with VDIVPS and VADDPS. Both clamp with VMAXPS, the
// value first so NaN saturates to the low limit like the scalar
// !(q > qlo), and VMINPS, round half away from zero (q plus 0.5 with q's
// sign, truncated) and pack to int8. Each kernel matches its Go loop bit
// for bit, and those loops are the fallback and the oracle.
//
// # Adaptive campaign lifecycle
//
// SDC probability is wildly non-uniform across the fault space: high
// exponent bits flip predictions, low mantissa bits almost never do,
// and layers differ by orders of magnitude. Uniform sampling therefore
// spends most of its budget where faults are benign. Setting
// Campaign.Adaptive (AdaptiveStratified or AdaptiveWorstCase) and
// calling RunAdaptive runs a sequential stratified design instead: the
// fault space is partitioned into (fault-space node × bit band) strata
// — Strata bands per node, high bits first; int8 campaigns stratify
// the stored word's 8 bits — and trials are allocated round by round
// to the strata whose Wilson 95% intervals are still wider than
// CITarget, until every stratum converges or the Trials budget is
// exhausted. AdaptiveWorstCase directs the surplus at the
// highest-upper-bound stratum — the campaign shape for "how bad is the
// worst layer" questions. The AdaptiveOutcome carries the aggregate
// fold, per-stratum evidence (StratumResult), and a post-stratified
// estimate: each stratum's rate weighted by its share of the fault
// space, so adaptive allocation never biases the headline number.
//
// The stopping rule is sound at the extremes because every interval in
// this repository is a Wilson score interval, not a Wald interval: zero
// observed SDCs in n trials yields a strictly positive upper bound
// (z²/(n+z²)), so a quiet stratum keeps earning samples until there is
// real evidence it is quiet — a Wald interval would collapse to ±0 and
// stop after the first lucky round. Percent() formats these intervals
// wherever proportions are reported, and a detector that saw zero SDCs
// reports CoverageOfSDCs as NaN (CoverageOfSDCsOK false) rather than a
// confident 0%.
//
// Allocation decisions are a pure function of the folded per-stratum
// counts, so the determinism contract extends in full: a fixed seed
// produces a byte-identical AdaptiveOutcome at every worker count, and
// AdaptiveRun (NewAdaptiveRun → ReplayTrial* →
// NextRound until Done) is the resumable form the rangerd service uses
// — replaying persisted trial records reconstructs the exact
// allocation state, so an interrupted adaptive job continues with the
// decisions an uninterrupted run would have made. rangerbench
// -exp adaptive measures the engine against uniform sampling under the
// same stopping rule; CI gates on ≥3× fewer trials to target.
//
// # Persistent fault-surface lifecycle
//
// The paper's fault model is transient: one activation value corrupted
// during one inference. Campaign.Surface generalizes where faults live.
// A persistent surface (WeightSurface, QuantParamSurface) plants the
// fault in stored state — a bit of a stored fp32 or int8 weight word, or
// a quantized step's scale/zero-point — where it stays across
// inferences, the failure mode of stuck memory cells rather than
// datapath glitches.
//
// RunPersistent runs Trials sequences. Each sequence: plant one fault
// (sampled from a per-sequence seed stream), then run up to SequenceLen
// inferences over the cycling input set. Every inference is judged
// against its clean reference — persistent campaigns count SDCs served,
// not a single SDC bit — and observed by Campaign.Detector (reset per
// inference). Detection ends the sequence, recording the 1-based
// inferences-to-detection latency; with Repair set it also triggers a
// scrub-from-golden reload of the corrupted tensor, verified by checking
// the next inference reproduces the clean reference byte-exactly
// (PostRepairOK). A fault that makes the plan unexecutable (quant-param
// corruption the kernels cannot be rebuilt under) is a DUE: counted,
// zero inferences. The PersistentOutcome aggregates detection rate,
// latency distributions, SDCs served before detection and undetected,
// repairs, and DUEs; Campaign.Adaptive composes, stratifying sequences
// over (layer × bit band) with the same Wilson stopping rule.
//
// Sequences run on the campaign engine's workers and shard loop (see
// the incremental campaign lifecycle), with every input checkpointed up
// front since a sequence cycles through them. Planting a fault installs
// it as a per-state override — an fp32 Variable override, a private
// int8 kernel, or patched quantization parameters — so the shared
// golden state stays untouched and scrub is an override drop. fp32
// sequences replay each inference with Plan.RunFrom from the fault's
// depth, the earliest step that reads the corrupted weight; int8
// sequences replay the cone of the overridden steps (QPlan.RunCone with
// nothing struck), which starts at the earliest overridden step. After
// a repair's scrub nothing is overridden, so the int8 post-repair check
// replays from the fault's depth with QPlan.RunFrom, as fp32 does, and
// compares a recomputed output with the reference.
//
// The two backends expose different detector visibility, deliberately:
// fp32 sequences replay through the hooked plan, so the detector
// observes every materialized activation; int8 sequences observe only
// the dequantized model output (the only float the quantized plan
// fetches). Measured detection rates differ accordingly — quant-param
// faults on int8 can serve SDCs that pass an activation-bound detector
// silently (rangerbench -exp persistent quantifies this).
//
// Sequences run in slot order on each worker (a non-cloneable detector
// forces one worker); each folds through SequenceResult.Apply in
// sequence order — the one fold shared by the live engine,
// RunPersistentSlice resume, and rangerd's chain refold — so
// PersistentOutcome is byte-identical at every worker count, across
// kill/resume boundaries, and under offline re-verification.
//
// # The rangerd service lifecycle
//
// cmd/rangerd turns campaigns into a durable, observable service:
// submit → stream → persist → resume → verify.
//
// A job is submitted as a JobSpec and sealed into an immutable
// JobManifest whose spec hash is the genesis of the job's block chain.
// Jobs wait on a bounded queue (a full queue rejects with ErrJobQueueFull
// / HTTP 429 + Retry-After) and execute on a shared worker pool. The
// trial grid — position = input*Trials + trial, one hash(Seed, input,
// trial) stream per position — runs as consecutive Campaign.RunSlice
// chunks; each completed chunk is sealed into a Block carrying every
// trial verdict, the previous block's hash, and its own, then fsynced to
// an append-only JSONL chain. The block boundary is the durability
// boundary: kill the daemon at any point (kill -9 included) and the next
// start re-queues the job, folds the persisted chain, and resumes from
// its frontier — per-trial seeds are absolute grid positions, so the
// final Outcome is byte-identical to an uninterrupted run, deviations
// preserved as IEEE-754 bit patterns. A JobSpec naming a persistent
// surface makes the grid Trials sequences instead (run as
// RunPersistentSlice chunks, one sequence record per position) and the
// completed job records a PersistentOutcome, resumable and verifiable
// the same way.
//
// While a job runs, subscribers stream per-trial, per-block, and status
// events (SSE over GET /v1/jobs/{id}/stream); a disconnected subscriber
// detaches without disturbing the job. The synchronous POST /v1/stream
// endpoint is the opposite contract: an ephemeral campaign tied to the
// request, cancelled the moment the client disconnects. SIGTERM drains
// gracefully — workers finish their current block and park interrupted
// jobs back on the durable queue; a second signal stops hard.
//
// Because each block commits to its predecessor and the genesis commits
// to the manifest, a published final hash pins the entire campaign:
// `rangerd verify` (VerifyJobChain) re-validates every seal and link
// offline and refolds the aggregate outcome, so a flipped verdict, a
// reordered block, or an edited spec is detected with no daemon and no
// re-execution.
//
// # Substrate
//
// The repository contains the full substrate stack the paper depends on,
// implemented with the standard library only:
//
//   - internal/tensor, internal/ops, internal/graph: a TensorFlow-1.x-style
//     static dataflow graph with forward and backward operator kernels,
//     the allocating per-call executor kept as the reference, compiled
//     execution plans (fused elementwise epilogues, static
//     liveness-planned buffers, one kernel per operator for full, suffix
//     and cone replay), and a concurrent RunBatch entry point
//   - internal/parallel: the shared worker pool — deterministic contiguous
//     work-sharding sized by RANGER_WORKERS (default: the core count) that
//     the kernels, the executor, the fault injector, and the experiment
//     sweeps all draw from; results are identical at every worker count
//   - internal/fixpoint: the 32-bit and 16-bit fixed-point fault encodings
//   - internal/data: deterministic synthetic stand-ins for MNIST, CIFAR-10,
//     GTSRB, ImageNet and the driving dataset
//   - internal/models, internal/train: the eight DNN benchmarks and the
//     training substrate (SGD/Adam) with a cached model zoo
//   - internal/core: Ranger itself — bound profiling and the Algorithm 1
//     graph transform
//   - internal/inject: the fault-injection campaign engine (transient
//     trials and persistent sequences on one backend and shard loop)
//     and the scenario and surface registries
//   - internal/baselines: the Table VI comparator techniques and the
//     Protector registry
//   - internal/experiments: one entry point per paper table and figure
//   - internal/service: the rangerd job service — durable hash-chained
//     trial storage, bounded-queue scheduling, resume, metrics, and the
//     HTTP API
//
// See README.md for a walkthrough.
package ranger
