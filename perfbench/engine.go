package main

import (
	"fmt"
	"time"

	rd "radixdecluster"
)

// engineEnv is one set-up of an in-process engine workload: relations
// and a shared runtime, driven by a closed loop of nproc clients that
// call ProjectJoin directly.
type engineEnv struct {
	d       *dataset
	rt      *rd.Runtime
	l, s    *rd.Relation
	queries []rd.JoinQuery // one per strategy
	refs    references
}

// openEngine builds relations (WithCompression when compressed), a
// runtime and one query per strategy. parallelism 0 is the serial
// paper mode, which never touches the runtime.
func openEngine(d *dataset, refs references, compressed bool, parallelism int) (*engineEnv, error) {
	l, s, err := d.relations(compressed)
	if err != nil {
		return nil, err
	}
	e := &engineEnv{
		d:  d,
		rt: rd.NewRuntime(rd.RuntimeConfig{Workers: nproc, ShareScans: true}),
		l:  l, s: s, refs: refs,
	}
	for _, st := range strategies {
		q := joinQuery(l, s, st)
		q.Parallelism = parallelism
		q.Runtime = e.rt
		if compressed {
			q.Compression = rd.CompressionOn
		}
		e.queries = append(e.queries, q)
	}
	return e, nil
}

func (e *engineEnv) close() { e.rt.Close() }

// warm runs every query shape once, verified, so lazy NSM images and
// encodings exist before timing.
func (e *engineEnv) warm() error {
	for i, q := range e.queries {
		res, err := rd.ProjectJoin(q)
		if err != nil {
			return fmt.Errorf("warm-up %v: %w", strategies[i], err)
		}
		if !digestOf(res.Cols).equal(e.refs[i]) {
			return fmt.Errorf("warm-up %v: result differs from the reference", strategies[i])
		}
	}
	return nil
}

// measure runs the closed loop for d over the fixed strategy cycle;
// every result is hashed against its reference after the clock stops.
func (e *engineEnv) measure(d time.Duration, tr *tracer) (*windowStats, error) {
	sched0 := e.rt.SchedStats()
	ws := closedLoop(d, func(c int) func(i int64) sample {
		return func(i int64) sample { return e.one(int(i%int64(len(e.queries))), i, c, tr) }
	})
	ws.sched = e.rt.SchedStats().Sub(sched0)
	return ws, nil
}

// one runs and verifies query qi of the cycle.
func (e *engineEnv) one(qi int, qid int64, client int, tr *tracer) sample {
	s := sample{strategy: qi, leg: -1}
	root := tr.id()
	t0 := time.Now()
	res, err := rd.ProjectJoin(e.queries[qi])
	t1 := time.Now()
	s.latency = t1.Sub(t0)
	tr.record(span{Parent: root, Query: qid, Tid: client, Name: "engine", Start: t0, End: t1})
	if err != nil {
		s.failed = true
		tr.record(span{ID: root, Query: qid, Tid: client, Name: "query", Start: t0, End: t1})
		return s
	}
	ok := digestOf(res.Cols).equal(e.refs[qi])
	t2 := time.Now()
	tr.record(span{Parent: root, Query: qid, Tid: client, Name: "verify", Start: t1, End: t2})
	tr.record(span{ID: root, Query: qid, Tid: client, Name: "query", Start: t0, End: t2})
	s.failed, s.wrong = !ok, !ok
	t := res.Timing
	s.phases = [6]float64{msOf(t.Scan), msOf(t.Join), msOf(t.ReorderJI), msOf(t.ProjectLarger), msOf(t.ProjectSmaller), msOf(t.Decluster)}
	s.queueMs, s.totalMs = msOf(t.Queue), msOf(t.Total)
	s.scanHits = t.SharedScanHits
	s.workers = res.Workers
	s.mem = t.Mem
	s.decodeMs = msOf(t.DecodeTime)
	s.savedB = t.CompressedSavedBytes
	s.rows = res.N
	return s
}

// layers fills the engine-only per-layer metrics and marks the
// service layers absent.
func (e *engineEnv) layers(r *report, ws *windowStats) {
	var acquired, reused, high, decode, total, saved float64
	n := 0
	for _, s := range ws.samples {
		if s.failed {
			continue
		}
		n++
		acquired += float64(s.mem.Acquired)
		reused += float64(s.mem.Reused)
		if hw := float64(s.mem.HighWater); hw > high {
			high = hw
		}
		decode += s.decodeMs
		total += s.totalMs
		saved += float64(s.savedB)
	}
	fn := float64(n)
	r.set("mempool.hit_rate", ratio(reused, acquired))
	r.set("mempool.high_water_mb", high/mib)
	r.set("mempool.acquired_mb_per_query", ratio(acquired/mib, fn))
	r.set("compress.decode_ms_per_query", ratio(decode, fn))
	r.set("compress.decode_share", ratio(decode, total))
	r.set("compress.saved_mb_per_query", ratio(saved/mib, fn))
	var absent []string
	for _, m := range perLayerMetrics {
		if hasPrefix(m.name, "wire.", "server.", "span.http.") {
			absent = append(absent, m.name)
		}
	}
	r.markAbsent(absent...)
}

// probes times the compress kernels and the planner.
func (e *engineEnv) probes(r *report, tr *tracer) error {
	if err := probeCompress(r, tr, e.d); err != nil {
		return err
	}
	return probePlan(r, tr, e.queries)
}
