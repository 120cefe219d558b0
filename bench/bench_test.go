package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain points the model zoo at a fresh directory, so the smoke runs
// train the one model they use instead of reading a developer's cache.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rangerbench-zoo-")
	if err != nil {
		panic(err)
	}
	os.Setenv("RANGER_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{200, 95, 190, true}, // p99 would leave 2 beyond
		{120, 90, 108, true}, // p95 would leave 6 beyond
		{20, 50, 10, true},
		{19, 0, 0, false}, // the median leaves 9 beyond
	} {
		pct, v, ok := tailPercentile(ramp(tc.n))
		if pct != tc.pct || v != tc.value || ok != tc.ok {
			t.Errorf("n=%d: tailPercentile = p%g %g %v; want p%g %g %v", tc.n, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", g)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if g := geomean(xs); !math.IsNaN(g) {
			t.Errorf("geomean(%v) = %g, want NaN", xs, g)
		}
	}
}

func TestPairedRatioCancelsDrift(t *testing.T) {
	// The host slows down threefold over the run; each protected call is
	// 2% slower than the plain call it ran beside.
	var prot, plain []float64
	for i := range 9 {
		speed := 1 + 0.25*float64(i)
		plain = append(plain, speed)
		prot = append(prot, 1.02*speed)
	}
	if r := pairedRatio(prot, plain); math.Abs(r-1.02) > 1e-12 {
		t.Errorf("pairedRatio = %g, want 1.02", r)
	}
	if r := median(prot) / median(plain); math.Abs(r-1.02) > 1e-12 {
		t.Fatalf("test setup: unpaired ratio %g", r)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "call", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "d", Start: 62, End: 65, Parent: 3},
		{Name: "other", Start: 0, End: 5, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 20, 30, 7, 3, 5}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfMillisByName(spans, 1, 3); got["a"] != 20e-6 || got["b"] != 30e-6 || len(got) != 2 {
		t.Errorf("selfMillisByName = %v", got)
	}
}

// TestImportsOnlyFacadeAndStdlib keeps the benchmark on the public API:
// it may import the ranger facade and the standard library, never
// ranger/internal/... or anything else.
func TestImportsOnlyFacadeAndStdlib(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if path != "ranger" && (first == "ranger" || strings.Contains(first, ".")) {
				t.Errorf("%s imports %q: only ranger and the standard library are allowed", file, path)
			}
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", b.PerLayer, perLayer)
	}
	setup := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" })
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > endToEnd[setup].Bound {
			t.Errorf("%s bound %g: want (0, setup_s bound %g]", d.Name, d.Bound, endToEnd[setup].Bound)
		}
	}
}

// smoke runs one workload for a second on lenet alone and returns the
// JSON object it printed last.
func smoke(t *testing.T, workload string, trace int) result {
	t.Helper()
	var out bytes.Buffer
	o := options{models: []string{"lenet"}, prepareZoo: prepare}
	err := runWith(o, []string{"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", strconv.Itoa(trace)}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	slices.Sort(names)
	return names
}

func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w.name, 0)
			got := slices.Sorted(maps.Keys(res.Metrics))
			if want := metricNames(b.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("metrics %v, BENCHMARK.json end_to_end %v", got, want)
			}
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %g, want > 0", name, v.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	b := loadBenchmarkJSON(t)
	res := smoke(t, "serve", 1)
	got := slices.Sorted(maps.Keys(res.Metrics))
	if want := metricNames(b.PerLayer); !slices.Equal(got, want) {
		t.Errorf("metrics %v, BENCHMARK.json per_layer %v", got, want)
	}
}
