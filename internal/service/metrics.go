// The service metrics layer: job and trial counters, queue-depth and
// running-jobs gauges, and a per-trial latency histogram, exposed in
// Prometheus text format on /metrics. Everything is stdlib: a mutex, a
// few integers, and fixed histogram buckets.
package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the per-trial latency histogram upper bounds, in
// seconds. Campaign trials on this substrate span ~50µs (suffix-replayed
// late-layer faults on small models) to ~1s (full replay on the deepest
// models), so the buckets cover that range log-spaced.
var latencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Metrics instruments the service. All methods are safe for concurrent
// use. The zero value is not usable; call NewMetrics.
type Metrics struct {
	mu sync.Mutex

	counters map[string]uint64
	gauges   map[string]func() float64

	histCounts []uint64 // per latencyBuckets bucket, non-cumulative
	histInf    uint64
	histSum    float64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]uint64),
		gauges:     make(map[string]func() float64),
		histCounts: make([]uint64, len(latencyBuckets)),
	}
}

// The service counter names.
const (
	MetricJobsSubmitted   = "rangerd_jobs_submitted_total"
	MetricJobsRejected    = "rangerd_jobs_rejected_total" // queue-full backpressure
	MetricJobsCompleted   = "rangerd_jobs_completed_total"
	MetricJobsFailed      = "rangerd_jobs_failed_total"
	MetricJobsCancelled   = "rangerd_jobs_cancelled_total"
	MetricJobsResumed     = "rangerd_jobs_resumed_total" // resumed past a persisted frontier
	MetricJobsInterrupted = "rangerd_jobs_interrupted_total"
	MetricBlocksPersisted = "rangerd_blocks_persisted_total"
	MetricTrialsRun       = "rangerd_trials_total"
	MetricStreamDropped   = "rangerd_stream_events_dropped_total"
	MetricStreamsRejected = "rangerd_streams_rejected_total"
)

// Inc adds n to a named counter.
func (m *Metrics) Inc(name string, n uint64) {
	m.mu.Lock()
	m.counters[name] += n
	m.mu.Unlock()
}

// Counter returns a counter's current value.
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SetGauge registers a live gauge read at exposition time (queue depth,
// running jobs).
func (m *Metrics) SetGauge(name string, fn func() float64) {
	m.mu.Lock()
	m.gauges[name] = fn
	m.mu.Unlock()
}

// ObserveTrial folds one trial's own execution time into the per-trial
// latency histogram.
func (m *Metrics) ObserveTrial(d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.histSum += sec
	if idx := sort.SearchFloat64s(latencyBuckets, sec); idx < len(latencyBuckets) {
		m.histCounts[idx]++
	} else {
		m.histInf++
	}
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (counters, gauges, and the trial-latency histogram).
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, m.counters[name])
	}

	names = names[:0]
	for name := range m.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, m.gauges[name]())
	}

	const hist = "rangerd_trial_latency_seconds"
	fmt.Fprintf(w, "# TYPE %s histogram\n", hist)
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += m.histCounts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", hist, fmt.Sprintf("%g", ub), cum)
	}
	cum += m.histInf
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", hist, cum)
	fmt.Fprintf(w, "%s_sum %g\n", hist, m.histSum)
	fmt.Fprintf(w, "%s_count %d\n", hist, cum)
}
