package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"time"

	rd "radixdecluster"
	"radixdecluster/internal/server"
	"radixdecluster/internal/wire"
)

// batchWindow is the server's arrival-batching window, joinserve's
// default.
const batchWindow = 2 * time.Millisecond

// serviceEnv is one set-up of the service workload: internal/server
// on a loopback listener over compressed relations, and a client with
// at most nproc keep-alive connections.
type serviceEnv struct {
	d      *dataset
	rt     *rd.Runtime
	l, s   *rd.Relation
	hs     *http.Server
	served chan error
	base   string
	tp     *http.Transport
	client *http.Client
	bodies [][]byte // request body per shape
	refs   references
	// truncate cuts every response body short (the negative test of a
	// truncated stream); 0 reads whole bodies.
	truncate int64
}

// A shape is one strategy × one result leg; shapes cycle in the order
// strategy-major, leg-minor.
func shapeOf(i int) (strategy, leg int) {
	i %= len(strategies) * len(legs)
	return i / len(legs), i % len(legs)
}

func openService(d *dataset, refs references) (*serviceEnv, error) {
	l, s, err := d.relations(true)
	if err != nil {
		return nil, err
	}
	rt := rd.NewRuntime(rd.RuntimeConfig{Workers: nproc, ShareScans: true, Metrics: true})
	srv, err := server.New(server.Config{Runtime: rt, BatchWindow: batchWindow})
	if err == nil {
		err = srv.Register(l)
	}
	if err == nil {
		err = srv.Register(s)
	}
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	e := &serviceEnv{
		d: d, rt: rt, l: l, s: s, refs: refs,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		tp:     &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true},
	}
	e.client = &http.Client{Transport: e.tp}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := 0; i < len(strategies)*len(legs); i++ {
		st, leg := shapeOf(i)
		req := server.QueryRequest{
			Larger: "larger", Smaller: "smaller", LargerKey: "key", SmallerKey: "key",
			LargerProject: proj, SmallerProject: proj,
			Strategy: strategies[st].String(),
		}
		if legs[leg] == "binary-compressed" {
			req.WireCompression = "auto"
		}
		b, err := json.Marshal(req)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("service: %w", err)
		}
		e.bodies = append(e.bodies, b)
	}
	return e, nil
}

// close stops the listener and every connection, waits for Serve to
// return, and closes the runtime.
func (e *serviceEnv) close() {
	e.tp.CloseIdleConnections()
	e.hs.Close()
	<-e.served
	e.rt.Close()
}

// response is one decoded query response.
type response struct {
	header    wire.Header
	footer    wire.Footer
	cols      [][]int32
	firstByte time.Time
	// corrupt marks a 200 whose stream failed to decode.
	corrupt bool
	err     error
}

// do sends shape i and decodes the whole response: wire.Decode (CRC
// verified) for the binary legs, the NDJSON parser for the text leg.
func (e *serviceEnv) do(i int, nd *ndjsonDecoder) response {
	_, leg := shapeOf(i)
	var out response
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { out.firstByte = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodPost,
		e.base+"/v1/query", bytes.NewReader(e.bodies[i%len(e.bodies)]))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if legs[leg] != "ndjson" {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
		out.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		return out
	}
	var body io.Reader = resp.Body
	if e.truncate > 0 {
		body = io.LimitReader(resp.Body, e.truncate)
	}
	if legs[leg] == "ndjson" {
		out.header, out.footer, out.cols, err = nd.decode(body)
	} else {
		var dec *wire.Decoded
		if dec, err = wire.Decode(body); err == nil {
			out.header, out.footer, out.cols = dec.Header, dec.Footer, dec.Cols
		}
	}
	if err != nil {
		out.corrupt, out.err = true, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain what a truncated read left
	return out
}

// check compares a decoded response with its strategy's reference.
func (e *serviceEnv) check(i int, r *response) bool {
	st, _ := shapeOf(i)
	return r.err == nil && r.header.N == e.refs[st].Rows && r.footer.RowsStreamed == r.header.N &&
		digestOf(r.cols).equal(e.refs[st])
}

// warm sends every shape once, verified.
func (e *serviceEnv) warm() error {
	nd := newNDJSONDecoder()
	for i := range e.bodies {
		r := e.do(i, nd)
		if r.err != nil {
			return fmt.Errorf("warm-up shape %d: %w", i, r.err)
		}
		if !e.check(i, &r) {
			return fmt.Errorf("warm-up shape %d: result differs from the reference", i)
		}
	}
	return nil
}

// measure runs the closed loop for d over the fixed shape cycle, one
// keep-alive connection per client.
func (e *serviceEnv) measure(d time.Duration, tr *tracer) (*windowStats, error) {
	st0, err := e.status()
	if err != nil {
		return nil, err
	}
	ws := closedLoop(d, func(c int) func(i int64) sample {
		nd := newNDJSONDecoder()
		return func(i int64) sample { return e.one(int(i), c, nd, tr) }
	})
	st1, err := e.status()
	if err != nil {
		return nil, err
	}
	ws.sched = st1.Sched.Sub(st0.Sched)
	ws.pool = rd.MemPoolStats{Hits: st1.MemPool.Hits - st0.MemPool.Hits, Misses: st1.MemPool.Misses - st0.MemPool.Misses}
	ws.status = [2]server.Status{st0, st1}
	return ws, nil
}

// one sends shape i, decodes the whole response and verifies it.
func (e *serviceEnv) one(i int, client int, nd *ndjsonDecoder, tr *tracer) sample {
	st, leg := shapeOf(i)
	s := sample{strategy: st, leg: leg}
	send := time.Now()
	r := e.do(i, nd)
	done := time.Now()
	s.latency = done.Sub(send)
	ok := e.check(i, &r)
	verified := time.Now()
	s.failed = !ok
	s.wrong = r.corrupt || (r.err == nil && !ok)

	if tr != nil {
		root := tr.id()
		fb := r.firstByte
		if fb.IsZero() {
			fb = done
		}
		tr.record(span{Parent: root, Query: int64(i), Tid: client, Name: "http.ttfb", Start: send, End: fb})
		tr.record(span{Parent: root, Query: int64(i), Tid: client, Name: "http.body", Start: fb, End: done})
		tr.record(span{Parent: root, Query: int64(i), Tid: client, Name: "verify", Start: done, End: verified})
		tr.record(span{ID: root, Query: int64(i), Tid: client, Name: "query", Start: send, End: verified})
	}
	if r.err != nil {
		return s
	}
	t := r.footer.Timing
	s.phases = [6]float64{t.ScanMs, t.JoinMs, t.ReorderJIMs, t.ProjectLargerMs, t.ProjectSmallerMs, t.DeclusterMs}
	s.queueMs, s.totalMs = t.QueueMs, t.TotalMs
	s.scanHits = r.footer.SharedScanHits
	s.workers = r.header.Workers
	s.rows = r.footer.RowsStreamed
	if !r.firstByte.IsZero() {
		s.ttfb = r.firstByte.Sub(send)
		s.transfer = done.Sub(r.firstByte)
	}
	return s
}

func (e *serviceEnv) status() (server.Status, error) {
	var st server.Status
	resp, err := e.client.Get(e.base + "/v1/status")
	if err != nil {
		return st, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("status: %w", err)
	}
	return st, nil
}

// layers fills the service-only per-layer metrics.
func (e *serviceEnv) layers(r *report, ws *windowStats) {
	var ttfb, transfer, unacc []float64
	var binRows float64
	for _, s := range ws.samples {
		if s.failed {
			continue
		}
		ttfb = append(ttfb, msOf(s.ttfb))
		transfer = append(transfer, msOf(s.transfer))
		// Client time that no engine phase accounts for: intake,
		// batching window, encode, transfer and decode.
		unacc = append(unacc, msOf(s.latency)-s.totalMs)
		if legs[s.leg] != "ndjson" {
			binRows += float64(s.rows)
		}
	}
	r.set("server.ttfb_ms", median(ttfb))
	r.set("server.transfer_ms", median(transfer))
	r.set("server.unaccounted_ms", median(unacc))
	s0, s1 := ws.status[0].Server, ws.status[1].Server
	r.set("server.batched_share", ratio(float64(s1.BatchedQueries-s0.BatchedQueries), float64(s1.Accepted-s0.Accepted)))
	r.set("server.rejected", float64(s1.Rejected429-s0.Rejected429))
	wb := float64(s1.WireBytes - s0.WireBytes)
	r.set("wire.bytes_per_row", ratio(wb, binRows))
	r.set("wire.compressed_bytes_ratio", ratio(float64(s1.WireCompBytes-s0.WireCompBytes), wb))
	for li, leg := range legs {
		lat := ws.okLatencies(func(s *sample) bool { return s.leg == li })
		r.set("server."+leg+".latency_p50_ms", median(lat))
		r.set("server."+leg+".latency_p95_ms", quantile(lat, 0.95))
	}
	r.set("mempool.hit_rate", ws.pool.HitRate())
	// The footer carries neither arena nor decode accounting, so these
	// engine counters are not observable through the service API.
	r.markAbsent("mempool.high_water_mb", "mempool.acquired_mb_per_query",
		"compress.decode_ms_per_query", "compress.decode_share", "compress.saved_mb_per_query",
		"span.engine.self_ms")
}

// probes times the compress kernels, the wire writer and decoder on
// one result, and the planner.
func (e *serviceEnv) probes(r *report, tr *tracer) error {
	if err := probeCompress(r, tr, e.d); err != nil {
		return err
	}
	res, err := rd.ProjectJoin(joinQuery(e.l, e.s, strategies[0]))
	if err != nil {
		return fmt.Errorf("probe wire: %w", err)
	}
	if err := probeWire(r, tr, res); err != nil {
		return err
	}
	var qs []rd.JoinQuery
	for _, st := range strategies {
		q := joinQuery(e.l, e.s, st)
		q.Runtime, q.Parallelism = e.rt, rd.AutoParallelism
		qs = append(qs, q)
	}
	return probePlan(r, tr, qs)
}

// errNDJSON wraps every NDJSON stream defect.
var errNDJSON = errors.New("ndjson: malformed stream")

// ndjsonDecoder decodes NDJSON result streams. It reuses its read
// buffer and result columns across responses, so that the client's own
// garbage does not drive the GC of the process it shares with the
// server. Returned columns are valid until the next decode.
type ndjsonDecoder struct {
	br   *bufio.Reader
	long []byte // a line longer than the read buffer, reassembled
	cols [][]int32
}

func newNDJSONDecoder() *ndjsonDecoder {
	return &ndjsonDecoder{br: bufio.NewReaderSize(nil, 1<<20)}
}

func (d *ndjsonDecoder) readLine() ([]byte, error) {
	b, err := d.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return b, err
	}
	d.long = append(d.long[:0], b...)
	for err == bufio.ErrBufferFull {
		b, err = d.br.ReadSlice('\n')
		d.long = append(d.long, b...)
	}
	return d.long, err
}

// decode reads a header line, row-chunk lines and a footer line,
// reassembling the rows into columns. It fails on a missing footer
// (truncation), a malformed chunk, a row of the wrong width, or a row
// count that disagrees with the footer.
func (d *ndjsonDecoder) decode(r io.Reader) (h wire.Header, f wire.Footer, cols [][]int32, err error) {
	d.br.Reset(r)
	line, err := d.readLine()
	if err != nil {
		return h, f, nil, fmt.Errorf("%w: header: %v", errNDJSON, err)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return h, f, nil, fmt.Errorf("%w: header: %v", errNDJSON, err)
	}
	for len(d.cols) < len(h.Names) {
		d.cols = append(d.cols, nil)
	}
	cols = d.cols[:len(h.Names)]
	for i := range cols {
		if cap(cols[i]) < h.N {
			cols[i] = make([]int32, 0, h.N)
		}
		cols[i] = cols[i][:0]
	}
	for {
		line, err = d.readLine()
		if err != nil {
			return h, f, nil, fmt.Errorf("%w: truncated before footer: %v", errNDJSON, err)
		}
		if !bytes.HasPrefix(line, []byte(`{"rows":`)) {
			break
		}
		if err := parseRows(line, cols); err != nil {
			return h, f, nil, err
		}
	}
	if err := json.Unmarshal(line, &f); err != nil {
		return h, f, nil, fmt.Errorf("%w: footer: %v", errNDJSON, err)
	}
	if _, err := d.br.ReadByte(); err != io.EOF {
		return h, f, nil, fmt.Errorf("%w: data after footer", errNDJSON)
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	if f.RowsStreamed != rows {
		return h, f, nil, fmt.Errorf("%w: footer says %d rows, received %d", errNDJSON, f.RowsStreamed, rows)
	}
	return h, f, cols, nil
}

// parseRows appends one `{"rows":[[a,b,...],...]}` line to cols.
func parseRows(line []byte, cols [][]int32) error {
	p := line[len(`{"rows":`):]
	bad := func(what string) error { return fmt.Errorf("%w: chunk: %s", errNDJSON, what) }
	if len(p) == 0 || p[0] != '[' {
		return bad("no row array")
	}
	p = p[1:]
	if len(p) > 0 && p[0] == ']' {
		p = p[1:]
	} else {
		for {
			if len(p) == 0 || p[0] != '[' {
				return bad("no row")
			}
			p = p[1:]
			for c := range cols {
				v, rest, ok := parseInt(p)
				if !ok {
					return bad("bad value")
				}
				cols[c] = append(cols[c], v)
				p = rest
				want := byte(',')
				if c == len(cols)-1 {
					want = ']'
				}
				if len(p) == 0 || p[0] != want {
					return bad("bad row width")
				}
				p = p[1:]
			}
			if len(p) == 0 {
				return bad("unterminated rows")
			}
			if p[0] == ']' {
				p = p[1:]
				break
			}
			if p[0] != ',' {
				return bad("bad row separator")
			}
			p = p[1:]
		}
	}
	if string(p) != "}\n" {
		return bad("bad line end")
	}
	return nil
}

// parseInt reads a decimal int32 prefix of p.
func parseInt(p []byte) (int32, []byte, bool) {
	neg := false
	i := 0
	if i < len(p) && p[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		v = v*10 + int64(p[i]-'0')
		if v > 1<<31 {
			return 0, p, false
		}
		i++
	}
	if i == start {
		return 0, p, false
	}
	if neg {
		v = -v
	}
	if v > 1<<31-1 || v < -(1<<31) {
		return 0, p, false
	}
	return int32(v), p[i:], true
}
