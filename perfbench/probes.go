package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	rd "radixdecluster"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/wire"
)

// Kernel probes run after the traced window only. Each times one
// kernel on the workload's own data a few times and reports the median
// rate in MB/s (10^6 bytes of raw int32 values per second).

const probeReps = 3

// timeProbe runs fn probeReps times, recording a probe span per run,
// and returns the median rate over rawBytes.
func timeProbe(tr *tracer, what string, rawBytes int, fn func() error) (float64, error) {
	var rates []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", what, err)
		}
		t1 := time.Now()
		tr.record(span{Tid: probeTid, Name: "probe", Detail: what, Start: t0, End: t1})
		rates = append(rates, float64(rawBytes)/1e6/t1.Sub(t0).Seconds())
	}
	return median(rates), nil
}

// probeCompress times FOR and delta-FOR encode and decode over the
// larger side's key and first payload column.
func probeCompress(r *report, tr *tracer, d *dataset) error {
	cols := [][]int32{d.larger[0].Values, d.larger[1].Values}
	raw := 4 * (len(cols[0]) + len(cols[1]))
	for _, sc := range []compress.Scheme{compress.FOR, compress.DeltaFOR} {
		enc := make([][]byte, len(cols))
		rate, err := timeProbe(tr, "compress."+sc.String()+".encode", raw, func() error {
			for i, c := range cols {
				b, err := compress.Compress(c, sc)
				if err != nil {
					return err
				}
				enc[i] = b
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.set("compress."+sc.String()+".encode_mb_per_s", rate)
		rate, err = timeProbe(tr, "compress."+sc.String()+".decode", raw, func() error {
			for i, b := range enc {
				v, err := compress.Decompress(b)
				if err != nil {
					return err
				}
				if len(v) != len(cols[i]) {
					return fmt.Errorf("decoded %d values, want %d", len(v), len(cols[i]))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.set("compress."+sc.String()+".decode_mb_per_s", rate)
	}
	return nil
}

// chunkRows matches the server's default row band per chunk.
const chunkRows = 8192

// encodeWire writes res as one binary columnar stream, the way the
// server's binary leg does.
func encodeWire(w io.Writer, res *rd.Result, comp wire.Compression) error {
	bw := wire.NewWriter(w, nil, comp)
	if err := bw.WriteHeader(wire.Header{N: res.N, Names: res.Names, Plan: res.Plan, Workers: res.Workers}); err != nil {
		return err
	}
	for lo := 0; lo < res.N; lo += chunkRows {
		hi := min(lo+chunkRows, res.N)
		for c := range res.Cols {
			if err := bw.WriteColumn(c, lo, res.Cols[c][lo:hi]); err != nil {
				return err
			}
		}
	}
	return bw.WriteFooter(wire.Footer{RowsStreamed: res.N})
}

// probeWire times the wire writer (to io.Discard) and decoder, raw and
// with per-frame compression, on one result of the workload.
func probeWire(r *report, tr *tracer, res *rd.Result) error {
	raw := 4 * res.N * len(res.Cols)
	for _, c := range []struct {
		suffix string
		comp   wire.Compression
	}{{"", wire.CompressOff}, {"_auto", wire.CompressAuto}} {
		rate, err := timeProbe(tr, "wire.encode"+c.suffix, raw, func() error { return encodeWire(io.Discard, res, c.comp) })
		if err != nil {
			return err
		}
		r.set("wire.encode"+c.suffix+"_mb_per_s", rate)
		var buf bytes.Buffer
		if err := encodeWire(&buf, res, c.comp); err != nil {
			return fmt.Errorf("probe wire: %w", err)
		}
		rate, err = timeProbe(tr, "wire.decode"+c.suffix, raw, func() error {
			dec, err := wire.Decode(bytes.NewReader(buf.Bytes()))
			if err == nil && dec.Rows != res.N {
				err = fmt.Errorf("decoded %d rows, want %d", dec.Rows, res.N)
			}
			return err
		})
		if err != nil {
			return err
		}
		r.set("wire.decode"+c.suffix+"_mb_per_s", rate)
	}
	return nil
}

const planCalls = 200

// probePlan times PlanJoin on every query shape and reports the median
// of the per-shape medians, in µs.
func probePlan(r *report, tr *tracer, qs []rd.JoinQuery) error {
	var perShape []float64
	for _, q := range qs {
		us := make([]float64, 0, planCalls)
		for i := 0; i < planCalls; i++ {
			t0 := time.Now()
			if _, err := rd.PlanJoin(q); err != nil {
				return fmt.Errorf("probe plan: %w", err)
			}
			t1 := time.Now()
			tr.record(span{Tid: probeTid, Name: "plan", Detail: q.Strategy.String(), Start: t0, End: t1})
			us = append(us, float64(t1.Sub(t0))/float64(time.Microsecond))
		}
		perShape = append(perShape, median(us))
	}
	r.set("plan_us", median(perShape))
	return nil
}
