package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric. The end-to-end and per-layer
// lists below are the benchmark's contract: BENCHMARK.json at the
// repository root must list exactly these names and units (the tests
// check it), an untraced run prints every end-to-end metric and a
// traced run every per-layer one.
type metricSpec struct {
	name, unit string
}

var endToEndMetrics = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"qps", "queries/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

// spanKinds are the span names the traced run records; each gets a
// span.<kind>.self_ms per-layer metric.
var spanKinds = []string{"query", "http.ttfb", "http.body", "engine", "plan", "verify", "probe"}

// legs are the service workload's three result encodings.
var legs = []string{"binary", "binary-compressed", "ndjson"}

var perLayerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"failed_ratio", "ratio"},
		{"phase.scan_ms", "ms"},
		{"phase.join_ms", "ms"},
		{"phase.reorder_ji_ms", "ms"},
		{"phase.project_larger_ms", "ms"},
		{"phase.project_smaller_ms", "ms"},
		{"phase.decluster_ms", "ms"},
	}
	for _, st := range strategies {
		m = append(m, metricSpec{"strategy." + strategyKey(st) + ".latency_p50_ms", "ms"})
	}
	m = append(m, []metricSpec{
		{"plan_us", "us"},
		{"exec.queue_ms", "ms"},
		{"exec.local_hit_rate", "ratio"},
		{"exec.steals_per_query", "count"},
		{"exec.shared_scan_hits_per_query", "count"},
		{"exec.workers", "count"},
		{"mempool.hit_rate", "ratio"},
		{"mempool.high_water_mb", "MiB"},
		{"mempool.acquired_mb_per_query", "MiB"},
		{"go.alloc_mb_per_query", "MiB"},
		{"go.gc_cycles_per_query", "count"},
		{"go.gc_pause_ms", "ms"},
		{"compress.decode_ms_per_query", "ms"},
		{"compress.decode_share", "ratio"},
		{"compress.saved_mb_per_query", "MiB"},
		{"compress.for.encode_mb_per_s", "MB/s"},
		{"compress.for.decode_mb_per_s", "MB/s"},
		{"compress.delta.encode_mb_per_s", "MB/s"},
		{"compress.delta.decode_mb_per_s", "MB/s"},
		{"wire.encode_mb_per_s", "MB/s"},
		{"wire.encode_auto_mb_per_s", "MB/s"},
		{"wire.decode_mb_per_s", "MB/s"},
		{"wire.decode_auto_mb_per_s", "MB/s"},
		{"wire.bytes_per_row", "bytes"},
		{"wire.compressed_bytes_ratio", "ratio"},
		{"server.ttfb_ms", "ms"},
		{"server.transfer_ms", "ms"},
		{"server.unaccounted_ms", "ms"},
		{"server.batched_share", "ratio"},
		{"server.rejected", "count"},
	}...)
	for _, q := range []string{"p50", "p95"} {
		for _, leg := range legs {
			m = append(m, metricSpec{"server." + leg + ".latency_" + q + "_ms", "ms"})
		}
	}
	m = append(m, metricSpec{"load.queries", "count"}, metricSpec{"trace.overhead_ratio", "ratio"})
	for _, k := range spanKinds {
		m = append(m, metricSpec{"span." + k + ".self_ms", "ms"})
	}
	return m
}()

// report collects metric values by name. Metrics a workload does not
// exercise (the wire layer on an engine workload) are printed as 0
// and listed as absent in the human-readable table.
type report struct {
	specs  []metricSpec
	vals   map[string]float64
	absent map[string]bool
}

func newReport(specs []metricSpec) *report {
	return &report{specs: specs, vals: map[string]float64{}, absent: map[string]bool{}}
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.vals[name] = v
	delete(r.absent, name)
}

// markAbsent records that name's layer did no work in this workload,
// unless a value was already set.
func (r *report) markAbsent(names ...string) {
	for _, n := range names {
		if _, ok := r.vals[n]; !ok {
			r.absent[n] = true
		}
	}
}

// writeTable prints the metrics one per line for people.
func (r *report) writeTable(w io.Writer) {
	for _, s := range r.specs {
		v, ok := r.vals[s.name]
		switch {
		case r.absent[s.name] || !ok:
			fmt.Fprintf(w, "  %-42s %14s %s (absent: layer not exercised)\n", s.name, "-", s.unit)
		default:
			fmt.Fprintf(w, "  %-42s %14.4f %s\n", s.name, v, s.unit)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeJSON prints the one-line result object, every spec'd metric
// included (absent ones as 0).
func (r *report) writeJSON(w io.Writer, correct bool, attempted, failed int) error {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range r.specs {
		out.Metrics[s.name] = metricValue{Value: r.vals[s.name], Unit: s.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// strategyKey is a strategy's lower-case metric-name form.
func strategyKey(st fmt.Stringer) string { return strings.ToLower(st.String()) }
