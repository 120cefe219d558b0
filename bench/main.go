// Command rangerbench is the repository benchmark: closed-loop workloads
// over the trained model zoo, timed through the public ranger facade.
//
// Build and run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh -prepare                                  # train the zoo once
//	bash bench/run.sh --workload serve --seed 1 --seconds 12    # one run
//	bash bench/run.sh --workload all --runs 5 --out a.jsonl     # every workload, in child processes
//	bash bench/run.sh --workload serve --trace 1 --spans s.jsonl
//	bash bench/run.sh -compare a.jsonl b.jsonl
//
// A run prints each metric by name with its unit and sample count and,
// as its last line, one JSON object with the keys correct, attempted,
// failed and metrics. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"ranger"
)

func main() {
	o := options{models: ranger.ModelNames(), prepareZoo: prepareInChild}
	if err := runWith(o, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rangerbench:", err)
		os.Exit(1)
	}
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string
	out      string
	runs     int
	prepare  bool
	compare  bool
	// models is the zoo a run prepares, and prepareZoo makes sure their
	// weights are trained and cached before the timed set-up; tests
	// shrink the one and run the other in-process.
	models     []string
	prepareZoo func(models []string) error
}

// runWith parses args over the defaults in o and runs the chosen mode.
func runWith(o options, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rangerbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all (each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 12, "how long the timed loop runs")
	fs.IntVar(&o.trace, "trace", 0, "1 for a traced run: per-layer metrics and the tracing overhead")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write the spans to this file (one JSON object per line)")
	fs.StringVar(&o.out, "out", "", "append each run's full record to this file (one JSON object per line)")
	fs.IntVar(&o.runs, "runs", 1, "with -workload all: run every workload this many times, seeds seed, seed+1, ...")
	fs.BoolVar(&o.prepare, "prepare", false, "train and cache the model zoo, then exit")
	fs.BoolVar(&o.compare, "compare", false, "compare two sets of records: -compare A.jsonl[,...] B.jsonl[,...]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case o.prepare:
		return prepare(o.models)
	case o.compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two comma-separated lists of record files")
		}
		return compare(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	case o.seconds <= 0:
		return fmt.Errorf("-seconds must be positive, not %g", o.seconds)
	case o.workload == "all":
		return runAll(o, stdout)
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
	if i < 0 {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s, all)", o.workload, strings.Join(names, ", "))
	}
	return runWorkload(workloads[i], o, stdout)
}

// runAll runs every workload in its own child process, o.runs times,
// reversing the workload order on every other pass so that no workload
// always runs first.
func runAll(o options, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := range o.runs {
		order := slices.Clone(workloads)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			if o.spans != "" {
				args = append(args, "-spans", fmt.Sprintf("%s.%s.%d", o.spans, w.name, i))
			}
			fmt.Fprintf(stdout, "# %s seed %d\n", w.name, o.seed+int64(i))
			if err := runChild(exe, args, stdout); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
	}
	return nil
}

// prepareInChild runs -prepare in a child process, so the run's own
// timed set-up still reads every model's weights from disk.
func prepareInChild([]string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return runChild(exe, []string{"-prepare"}, os.Stderr)
}

// runChild runs the benchmark binary with args and waits for it.
func runChild(exe string, args []string, stdout io.Writer) error {
	cmd := exec.Command(exe, args...)
	cmd.Stdout = stdout
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// record is everything one run measured; -out appends it as one JSON
// line and -compare reads it back.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Rounds      int                `json:"rounds"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Digest      string             `json:"outcome_digest"`
	HostProbeMS [2]float64         `json:"host_probe_ms"`
	// TraceOverhead is traced minus untraced end-to-end metrics, from
	// the traced and untraced rounds of a traced run.
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload prepares the zoo, runs one workload's timed loop, checks
// every output, and prints the metrics.
func runWorkload(w workload, o options, stdout io.Writer) error {
	ctx := context.Background()
	rec := record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1}
	rec.HostProbeMS[0] = hostProbeMS()
	phases := newPhases()
	if err := o.prepareZoo(o.models); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	phases.mark("prepare")
	// Timed phases run on one thread, for kernels and for the Go
	// runtime: on a small shared host, work on a second core (a kernel
	// shard, the collector's background marking) waits on whatever the
	// neighbours do there, and that swung absolute times by a third and
	// paired ratios by 5% from run to run. Untimed phases use every core.
	// Half the default GC target keeps the peak RSS close to the live
	// heap instead of to wherever the collector happened to run.
	ranger.SetWorkers(1)
	procs := runtime.GOMAXPROCS(1)
	debug.SetGCPercent(50)
	var tr *tracer
	if rec.Trace {
		tr = newTracer()
	}
	ref := newRefKernel()
	su, err := setupRepeated(tr, ref, o.seed, o.models)
	if err != nil {
		return err
	}
	phases.mark("setup")
	runtime.GOMAXPROCS(procs)
	cells, err := w.cells(ctx, su.zoo)
	if err != nil {
		return err
	}
	phases.mark("cells")
	runtime.GOMAXPROCS(1)
	runtime.GC()
	loop := runRounds(cells, o.seconds, tr, ref)
	rssMB := maxRSSMB() // before the recheck's second worker adds its own
	phases.mark("loop")
	// One more checked call per cell at two campaign workers: outcomes
	// must not depend on the worker count.
	runtime.GOMAXPROCS(procs)
	for _, c := range cells {
		for s := range c.run {
			_, _, err := c.run[s](0, 2)
			loop.count(err)
		}
	}
	runtime.GOMAXPROCS(1)
	phases.mark("recheck")
	rec.Rounds = loop.rounds
	rec.Attempted, rec.Failed = loop.attempted, loop.failed
	rec.Correct = loop.failed == 0
	rec.Digest = digest(cells)

	var defs []metricDef
	if rec.Trace {
		defs = perLayer
		if slices.Contains(loop.traced, true) {
			untraced := familyMetrics(cells, func(r int) bool { return !loop.traced[r] })
			traced := familyMetrics(cells, func(r int) bool { return loop.traced[r] })
			rec.TraceOverhead = make(map[string]float64)
			for name, v := range traced {
				rec.TraceOverhead[name] = v - untraced[name]
			}
		}
		if rec.Metrics, err = layerMetrics(ctx, su, tr); err != nil {
			return err
		}
		phases.mark("probes")
		if o.spans != "" {
			if err := tr.write(o.spans); err != nil {
				return err
			}
		}
	} else {
		defs = endToEnd
		rec.Metrics = familyMetrics(cells, func(int) bool { return true })
		rec.Metrics["setup_s"] = su.setupS
		rec.Metrics["max_rss_mb"] = rssMB
	}
	rec.HostProbeMS[1] = hostProbeMS()
	for _, msg := range loop.errors {
		fmt.Fprintln(stdout, "error:", msg)
	}
	fmt.Fprintf(stdout, "diag phase_s%s\n", phases)
	return report(stdout, rec, defs, cells, loop, o.out)
}

// phases records how long each stage of a run took, for the diagnostics.
type phases struct {
	last time.Time
	b    strings.Builder
}

func newPhases() *phases { return &phases{last: time.Now()} }

func (p *phases) mark(name string) {
	now := time.Now()
	fmt.Fprintf(&p.b, " %s=%.2f(rss %.0f)", name, now.Sub(p.last).Seconds(), maxRSSMB())
	p.last = now
}

func (p *phases) String() string { return p.b.String() }

// loopResult is what a timed loop did.
type loopResult struct {
	rounds    int    // complete rounds; the last may be cut short at the deadline
	traced    []bool // per round started: whether its calls recorded spans
	attempted int
	failed    int
	errors    []string // the first few failures
}

func (l *loopResult) count(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errors) < 10 {
			l.errors = append(l.errors, err.Error())
		}
	}
}

// runRounds runs rounds until seconds have passed, stopping between
// cells once at least one round is complete. Within each cell the plain
// and protected calls run back to back, and which goes first alternates
// between rounds; ref runs before, between and after them, to scale each
// call to the reference host speed. In a traced run, rounds 2 and 3 of
// every 4 record spans, so traced and untraced rounds see both pair
// orders and the same host drift.
func runRounds(cells []*cell, seconds float64, tr *tracer, ref *refKernel) loopResult {
	var res loopResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var op int64
	for r := 0; ; r++ {
		// Each round starts from a collected heap, so how much garbage
		// earlier rounds left does not decide where the GC lands.
		runtime.GC()
		traced := tr != nil && r%4 >= 2
		var rt *tracer
		if traced {
			rt = tr
		}
		root := rt.begin("round", -1, int64(r))
		order := [2]int{plain, prot}
		if r%2 == 1 {
			order = [2]int{prot, plain}
		}
		res.traced = append(res.traced, traced)
		for _, c := range cells {
			if r > 0 && time.Now().After(deadline) {
				rt.end(root)
				return res
			}
			before := ref.seconds()
			for _, s := range order {
				op++
				i := rt.begin(c.span, root, op)
				ops, elapsed, err := c.run[s](r, 1)
				rt.end(i)
				after := ref.seconds()
				res.count(err)
				perOp := elapsed.Seconds() / float64(max(ops, 1))
				c.times[s] = append(c.times[s], perOp)
				c.scaled[s] = append(c.scaled[s], atRefSpeed(perOp, before, after))
				c.calls[s] = append(c.calls[s], elapsed.Seconds())
				before = after
			}
		}
		rt.end(root)
		res.rounds++
	}
}

// familyMetrics computes the per-family end-to-end metrics over the
// rounds keep selects.
func familyMetrics(cells []*cell, keep func(r int) bool) map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range []string{"fp32", "int8"} {
		var rates, ratios []float64
		for _, c := range cells {
			if c.family != fam {
				continue
			}
			var p, q, scaled []float64
			for r := range c.times[prot] {
				if keep(r) {
					p, q = append(p, c.times[plain][r]), append(q, c.times[prot][r])
					scaled = append(scaled, c.scaled[prot][r])
				}
			}
			rates = append(rates, 1/median(scaled))
			ratios = append(ratios, pairedRatio(q, p))
		}
		out["ops_per_s_"+fam] = geomean(rates)
		out["ranger_ratio_"+fam] = geomean(ratios)
	}
	return out
}

// digest is the SHA-256 of every cell's canonical outcomes, in cell
// order; runs that share a seed must print the same digest.
func digest(cells []*cell) string {
	h := sha256.New()
	for _, c := range cells {
		for s, b := range c.canon {
			fmt.Fprintf(h, "%s/%s/%s/%d\n", c.model, c.label, sideNames[s], len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report prints the human-readable lines, appends the record to out when
// set, and prints the result object last.
func report(stdout io.Writer, rec record, defs []metricDef, cells []*cell, loop loopResult, out string) error {
	if !rec.Trace {
		for _, c := range cells {
			fmt.Fprintf(stdout, "cell %-10s %-15s", c.model, c.label)
			for s := range c.times {
				fmt.Fprintf(stdout, " %s p50=%.4gms", sideNames[s], 1e3*median(c.times[s]))
				if pct, v, ok := tailPercentile(c.times[s]); ok && pct > 50 {
					fmt.Fprintf(stdout, " p%g=%.4gms", pct, 1e3*v)
				}
			}
			fmt.Fprintf(stdout, " call p50=%.4gms (n=%d)\n", 1e3*median(c.calls[prot]), len(c.times[prot]))
		}
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%g)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "metric %-36s %14.6g %-6s (n=%s)\n", d.Name, v, d.Unit, sampleCount(d.Name, len(cells), loop.rounds))
	}
	fmt.Fprintf(stdout, "diag outcome_digest %s\n", rec.Digest)
	fmt.Fprintf(stdout, "diag host_probe_ms start=%.3f end=%.3f\n", rec.HostProbeMS[0], rec.HostProbeMS[1])
	fmt.Fprintf(stdout, "diag rounds %d\n", rec.Rounds)
	for _, name := range slices.Sorted(maps.Keys(rec.TraceOverhead)) {
		fmt.Fprintf(stdout, "diag trace_overhead %s %+.6g\n", name, rec.TraceOverhead[name])
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// sampleCount describes how many samples a metric summarizes.
func sampleCount(name string, cells, rounds int) string {
	switch {
	case name == "setup_s":
		return fmt.Sprintf("%d set-ups", setupReps)
	case name == "max_rss_mb":
		return "1"
	case strings.HasPrefix(name, "ops_per_s_"), strings.HasPrefix(name, "ranger_ratio_"):
		return fmt.Sprintf("%d rounds x %d cells", rounds, cells)
	}
	return "probe"
}

// appendRecord appends rec to path as one JSON line.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
