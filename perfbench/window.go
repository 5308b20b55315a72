package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rd "radixdecluster"
	"radixdecluster/internal/server"
)

// sample is one timed query.
type sample struct {
	strategy int // index into strategies
	leg      int // index into legs; -1 on the engine workloads
	// latency is the end-to-end clock: the ProjectJoin call on the
	// engine workloads, send to decoded footer on the service.
	latency time.Duration
	// failed counts the query in failed_ratio; wrong marks a result
	// that arrived but did not match its reference (or did not decode).
	failed, wrong bool

	phases   [6]float64 // scan, join, reorder, project larger/smaller, decluster (ms)
	queueMs  float64
	totalMs  float64
	scanHits int64
	workers  int

	// Engine-side counters (Result.Timing).
	mem      rd.MemStats
	decodeMs float64
	savedB   int64

	// Service-side clocks: first byte - send, footer - first byte.
	ttfb, transfer time.Duration
	rows           int
}

// windowStats is what one timed window measured.
type windowStats struct {
	elapsed time.Duration
	samples []sample
	// Process-wide Go runtime counters over the window.
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	// Scheduler and arena deltas of the workload's runtime.
	sched rd.SchedStats
	pool  rd.MemPoolStats
	// status holds the service's /v1/status before and after.
	status [2]server.Status
}

// attempted/failed/wrong count the window's queries.
func (w *windowStats) counts() (attempted, failed, wrong int) {
	for _, s := range w.samples {
		attempted++
		if s.failed {
			failed++
		}
		if s.wrong {
			wrong++
		}
	}
	return
}

// okLatencies returns the latencies (ms) of the successful queries
// matching keep.
func (w *windowStats) okLatencies(keep func(*sample) bool) []float64 {
	var out []float64
	for i := range w.samples {
		s := &w.samples[i]
		if !s.failed && (keep == nil || keep(s)) {
			out = append(out, msOf(s.latency))
		}
	}
	return out
}

// closedLoop runs nproc clients for about d. Each client issues query
// i of a shared counter and waits for its reply before taking the next,
// until the deadline; newClient builds client c's query function. The
// elapsed time runs to the last reply.
func closedLoop(d time.Duration, newClient func(c int) func(i int64) sample) *windowStats {
	ws := &windowStats{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var next atomic.Int64
	per := make([][]sample, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			query := newClient(c)
			for time.Now().Before(deadline) {
				per[c] = append(per[c], query(next.Add(1)-1))
			}
		}(c)
	}
	wg.Wait()
	ws.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	ws.alloc = after.TotalAlloc - before.TotalAlloc
	ws.gcCycles = after.NumGC - before.NumGC
	ws.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for _, p := range per {
		ws.samples = append(ws.samples, p...)
	}
	return ws
}

// endToEnd fills the end-to-end metrics a window measured.
func endToEnd(r *report, ws *windowStats) {
	lat := ws.okLatencies(nil)
	r.set("latency_p50_ms", median(lat))
	r.set("latency_p95_ms", quantile(lat, 0.95))
	r.set("qps", float64(len(lat))/ws.elapsed.Seconds())
}

// commonLayers fills the per-layer metrics every workload measures
// the same way.
func commonLayers(r *report, ws *windowStats) {
	att, failed, _ := ws.counts()
	r.set("failed_ratio", ratio(float64(failed), float64(att)))
	var ok []*sample
	for i := range ws.samples {
		if !ws.samples[i].failed {
			ok = append(ok, &ws.samples[i])
		}
	}
	n := float64(len(ok))
	var phases [6]float64
	var queue, hits, workers float64
	for _, s := range ok {
		for p := range phases {
			phases[p] += s.phases[p]
		}
		queue += s.queueMs
		hits += float64(s.scanHits)
		workers += float64(s.workers)
	}
	for p, name := range []string{"scan", "join", "reorder_ji", "project_larger", "project_smaller", "decluster"} {
		r.set("phase."+name+"_ms", ratio(phases[p], n))
	}
	for i, st := range strategies {
		r.set("strategy."+strategyKey(st)+".latency_p50_ms", median(ws.okLatencies(func(s *sample) bool { return s.strategy == i })))
	}
	r.set("exec.queue_ms", ratio(queue, n))
	r.set("exec.local_hit_rate", ws.sched.LocalHitRate())
	r.set("exec.steals_per_query", ratio(float64(ws.sched.Steals()), n))
	r.set("exec.shared_scan_hits_per_query", ratio(hits, n))
	r.set("exec.workers", ratio(workers, n))
	r.set("go.alloc_mb_per_query", ratio(float64(ws.alloc)/mib, n))
	r.set("go.gc_cycles_per_query", ratio(float64(ws.gcCycles), n))
	r.set("go.gc_pause_ms", msOf(ws.gcPause))
	r.set("load.queries", n)
}
