package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// loadRecords reads untraced run records from JSON-lines files, in file
// order.
func loadRecords(paths []string) ([]record, error) {
	var recs []record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for line := 1; sc.Scan(); line++ {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			if !r.Trace {
				recs = append(recs, r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return recs, nil
}

// verdict judges side B against baseline A for one metric: a regression
// when B's median is worse than A's by more than the bound, unresolved
// when either side's quartile spread exceeds the bound (unless every B
// run beats every A run), ok otherwise.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if allBetter(d, a, b) {
			return "better"
		}
		return "unresolved"
	}
	if worse > d.Bound {
		return "REGRESSION"
	}
	return "ok"
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func better(d metricDef, x, than float64) bool {
	if d.Better == "higher" {
		return x > than
	}
	return x < than
}

func allBetter(d metricDef, a, b []float64) bool {
	for _, y := range b {
		for _, x := range a {
			if !better(d, y, x) {
				return false
			}
		}
	}
	return true
}

// pairWins counts the alternating pairs (i-th run of A with the i-th run
// of B) that B wins and the pairs compared; ties count for neither.
func pairWins(d metricDef, a, b []float64) (wins, pairs int) {
	pairs = min(len(a), len(b))
	for i := range pairs {
		if better(d, b[i], a[i]) {
			wins++
		}
	}
	return wins, pairs
}

// compare prints, per workload and end-to-end metric, both sides' median
// and quartiles, the pairs B wins, and a verdict against the metric's
// bound. It also checks that runs sharing a workload and seed printed the
// same outcome digest.
func compare(w io.Writer, aPaths, bPaths []string) error {
	a, err := loadRecords(aPaths)
	if err != nil {
		return err
	}
	b, err := loadRecords(bPaths)
	if err != nil {
		return err
	}
	byWorkload := func(recs []record, name string) []record {
		return slices.DeleteFunc(slices.Clone(recs), func(r record) bool { return r.Workload != name })
	}
	values := func(recs []record, metric string) []float64 {
		v := make([]float64, len(recs))
		for i, r := range recs {
			v[i] = r.Metrics[metric]
		}
		return v
	}
	fmt.Fprintf(w, "%-14s %-18s %28s %28s %6s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "verdict")
	for _, wl := range workloads {
		ra, rb := byWorkload(a, wl.name), byWorkload(b, wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			wins, pairs := pairWins(d, va, vb)
			fmt.Fprintf(w, "%-14s %-18s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+5.1f%% %3d/%-2d  %s (bound %g%%)\n",
				wl.name, d.Name, median(va), qa1, qa3, median(vb), qb1, qb3,
				100*(median(vb)/median(va)-1), wins, pairs, verdict(d, va, vb), 100*d.Bound)
		}
		fa, fb := 0, 0
		for _, r := range ra {
			fa += r.Failed
		}
		for _, r := range rb {
			fb += r.Failed
		}
		fmt.Fprintf(w, "%-14s failed operations: A %d, B %d\n", wl.name, fa, fb)
	}
	digests := map[string]string{}
	for _, r := range append(slices.Clone(a), b...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if prev, ok := digests[key]; ok && prev != r.Digest {
			fmt.Fprintf(w, "outcome_digest differs for %s: %s vs %s\n", key, prev, r.Digest)
		}
		digests[key] = r.Digest
	}
	return nil
}
