// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the program's public entry points — the
// radixdecluster library (ProjectJoin, PlanJoin on a shared Runtime)
// or the internal/server HTTP service on a loopback listener —
// verifies every result against a reference, and prints its metrics by
// name and unit, the last line of standard output being one JSON
// object. With --trace 1 it instead prints the per-layer metrics of a
// traced run and writes its spans as a Chrome trace. See README.md.
//
//	perfbench --workload engine-large --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// nproc is the client, connection and worker count of every workload.
var nproc = runtime.NumCPU()

// env is one set-up of a workload.
type env interface {
	warm() error
	// measure runs one timed window of about d.
	measure(d time.Duration, tr *tracer) (*windowStats, error)
	// layers fills the workload-specific per-layer metrics.
	layers(r *report, ws *windowStats)
	// probes runs the workload's kernel probes (traced run only).
	probes(r *report, tr *tracer) error
	close()
}

type workloadDef struct {
	name string
	n    int // tuples per side
	open func(d *dataset, refs references, o *options) (env, error)
}

var workloads = []workloadDef{
	{"engine-large", 1 << 20, func(d *dataset, refs references, o *options) (env, error) {
		return openEngine(d, refs, false, nproc)
	}},
	{"engine-serial-compressed", 1 << 18, func(d *dataset, refs references, o *options) (env, error) {
		return openEngine(d, refs, true, 0)
	}},
	{"service-mixed", 1 << 16, func(d *dataset, refs references, o *options) (env, error) {
		return openService(d, refs)
	}},
}

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	traceOut   string
	scale      int
	n          int
	setups     int
	minQueries int
	inject     string
	reference  bool
}

func parseOptions(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, " | "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated data")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run printing the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/perfbench/<workload>-seed<seed>.trace.json)")
	fs.IntVar(&o.scale, "scale", 0, "divide every workload's tuple count by 2^scale (smoke tests)")
	fs.IntVar(&o.setups, "setups", 3, "set-ups per run; setup_s is their median")
	fs.IntVar(&o.minQueries, "min-queries", 200, "a run completing fewer queries is invalid")
	fs.StringVar(&o.inject, "inject", "", "fault to inject (tests): corrupt-ref | truncate-stream")
	fs.BoolVar(&o.reference, "reference", false, "print reference digests and exit (internal)")
	fs.IntVar(&o.n, "n", 0, "tuples per side of --reference (internal)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 || o.setups < 1 {
		return nil, fmt.Errorf("--seconds and --setups must be positive")
	}
	switch o.inject {
	case "", "corrupt-ref", "truncate-stream":
	default:
		return nil, fmt.Errorf("unknown --inject %q", o.inject)
	}
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns its exit code:
// 0 on a valid, correct run; 1 on a wrong result or an error; 2 on a
// run that completed too few queries for its p95.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.reference {
		return runReference(o, stdout, stderr)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", o.workload)
		return 1
	}
	code, err := runWorkload(wl, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func runReference(o *options, stdout, stderr io.Writer) int {
	d, err := genData(o.n, o.seed)
	if err == nil {
		var refs references
		if refs, err = computeReferences(d); err == nil {
			err = json.NewEncoder(stdout).Encode(refs)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(wl *workloadDef, o *options, stdout io.Writer) (int, error) {
	n := wl.n >> o.scale
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d n=%d nproc=%d seconds=%g trace=%d\n",
		wl.name, o.seed, n, nproc, o.seconds, o.trace)

	// The benchmark's own work, outside setup_s: data and references.
	d, err := genData(n, o.seed)
	if err != nil {
		return 0, err
	}
	refs, err := loadReferences(wl.name, n, o.seed)
	if err != nil {
		return 0, err
	}

	// Set up o.setups times from scratch; time the median, keep the last.
	var e env
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		if e, err = wl.open(d, refs, o); err != nil {
			return 0, err
		}
		if err = e.warm(); err != nil {
			e.close()
			return 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	// Faults are injected after set-up, so that they hit timed queries.
	switch o.inject {
	case "corrupt-ref":
		refs[0].Cols[0] ^= 1
	case "truncate-stream":
		if se, ok := e.(*serviceEnv); ok {
			se.truncate = 4096
		}
	}
	fmt.Fprintf(stdout, "setup: %d runs, median %.3f s, each %s\n", len(setups), median(setups), fmtList(setups, "%.3f"))

	window := time.Duration(o.seconds * float64(time.Second))
	// An unmeasured tenth of the window first brings the heap, the
	// arena and the connections to their steady state. Its results are
	// still verified.
	warm, err := e.measure(window/10, nil)
	if err != nil {
		return 0, err
	}
	all := []*windowStats{warm}
	var r *report
	var ws *windowStats
	if o.trace == 0 {
		r = newReport(endToEndMetrics)
		if ws, err = e.measure(window, nil); err != nil {
			return 0, err
		}
		all = append(all, ws)
		endToEnd(r, ws)
		r.set("setup_s", median(setups))
		r.set("max_rss_mb", maxRSSMiB())
	} else {
		// Untraced then traced half-windows: the per-layer numbers come
		// from the traced half, trace.overhead_ratio compares the two.
		r = newReport(perLayerMetrics)
		plain, err := e.measure(window/2, nil)
		if err != nil {
			return 0, err
		}
		tr := newTracer()
		if ws, err = e.measure(window/2, tr); err != nil {
			return 0, err
		}
		all = append(all, plain, ws)
		commonLayers(r, ws)
		e.layers(r, ws)
		r.set("trace.overhead_ratio", ratio(median(ws.okLatencies(nil)), median(plain.okLatencies(nil)))-1)
		if err := e.probes(r, tr); err != nil {
			return 0, err
		}
		self := tr.selfTimes()
		for _, k := range spanKinds {
			if v, ok := self[k]; ok {
				r.set("span."+k+".self_ms", v)
			} else {
				r.markAbsent("span." + k + ".self_ms")
			}
		}
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d.trace.json", wl.name, o.seed))
		}
		if err := tr.writeChrome(path, fmt.Sprintf("perfbench %s seed %d", wl.name, o.seed)); err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tr.spans), path)
	}

	attempted, failed, wrong := 0, 0, 0
	for _, w := range all {
		a, f, x := w.counts()
		attempted, failed, wrong = attempted+a, failed+f, wrong+x
	}
	ok := len(ws.okLatencies(nil))
	valid := o.trace == 1 || ok >= o.minQueries
	fmt.Fprintf(stdout, "load: queries=%d attempted=%d failed=%d wrong=%d failed_ratio=%.4f valid=%t\n",
		ok, attempted, failed, wrong, ratio(float64(failed), float64(attempted)), valid)
	r.writeTable(stdout)
	if err := r.writeJSON(stdout, wrong == 0, attempted, failed); err != nil {
		return 0, err
	}
	switch {
	case wrong > 0:
		return 1, fmt.Errorf("%d results did not match their references", wrong)
	case !valid:
		return 2, fmt.Errorf("run invalid: %d queries completed, fewer than %d", ok, o.minQueries)
	}
	return 0, nil
}

// maxRSSMiB is the process's peak resident set (getrusage maxrss).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// hasPrefix reports whether s starts with any of the prefixes.
func hasPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
