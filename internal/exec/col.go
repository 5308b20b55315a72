package exec

// Scan and gather operators over one input type, Col: a raw slice, a
// block-compressed encoding, or both. Every operator is written once
// over two primitives that hide the representation:
//
//   - the span read (Col.spans) hands the operator a range of items as
//     value spans — for raw input the sub-slice itself, no copy; for
//     compressed input L1-sized spans decoded into decoder scratch;
//   - the point gather (Col.gather) fetches the fields of the items an
//     oid list names — for raw input the posjoin / nsm record loops;
//     for compressed input one region decode when the oids are dense
//     enough, else a one-block cache.
//
// Morsel decomposition, scan keys and output bytes are those of the
// raw operator either way, so a compressed run is byte-identical to a
// raw one and shares scans exactly where the raw one would.

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/posjoin"
)

// Col is the input of the scan and gather operators: Len() items of
// Width values each, row-major. An NSM record image carries its record
// width; a DSM column leaves Width 0 and holds one value per item.
// When Enc is set the compressed form is the execution format and Raw
// (if present) is ignored; the two must decode to identical values.
type Col struct {
	Raw   []int32
	Enc   *compress.Encoded
	Width int
}

// width is the number of values per item.
func (c Col) width() int { return max(c.Width, 1) }

// values is the length of the execution-format value stream.
func (c Col) values() int {
	if c.Enc != nil {
		return c.Enc.Len()
	}
	return len(c.Raw)
}

// Len returns the number of items (records, or column values).
func (c Col) Len() int { return c.values() / c.width() }

// Compressed reports whether the compressed form is the execution format.
func (c Col) Compressed() bool { return c.Enc != nil }

// check validates c's shape and the attribute offsets an operator
// reads, returning the item count.
func (c Col) check(op string, attrs []int) (int, error) {
	w := c.width()
	if c.Width < 0 || c.values()%w != 0 {
		return 0, fmt.Errorf("exec: %s: %d values is not a multiple of width %d", op, c.values(), c.Width)
	}
	for _, a := range attrs {
		if a < 0 || a >= w {
			return 0, fmt.Errorf("exec: %s: column %d outside width %d", op, a, w)
		}
	}
	return c.values() / w, nil
}

// scanKey is the identity a scan over c's n items declares: the
// encoded stream for compressed input, the record array of an NSM
// image, or the column array of a DSM column.
func (c Col) scanKey(n int) ScanKey {
	switch {
	case c.Enc != nil:
		return EncScanKey(c.Enc, n)
	case c.Width == 0:
		return ColumnScanKey(c.Raw, n)
	}
	return RowsScanKey(c.Raw, n)
}

// spans is the span read: it hands body the values of items
// [r.Lo,r.Hi) in consecutive spans, body(lo, span) receiving items
// [lo, lo+len(span)/width). Raw input is one span, the sub-slice
// itself. Compressed input decodes into d's scratch in spans of at
// most decodeSpanValues values, cut on a fixed grid of the item space:
// a width-1 span then never splits a block, so a range decodes exactly
// its own blocks.
func (c Col) spans(cnt *compCounters, d *decoder, r Range, body func(lo int, span []int32)) error {
	w := c.width()
	if c.Enc == nil {
		body(r.Lo, c.Raw[r.Lo*w:r.Hi*w])
		return nil
	}
	step := max(decodeSpanValues/w, 1)
	for lo := r.Lo; lo < r.Hi; {
		hi := min((lo/step+1)*step, r.Hi)
		span, err := d.rangeInto(cnt, c.Enc, lo*w, hi*w)
		if err != nil {
			return err
		}
		body(lo, span)
		lo = hi
	}
	return nil
}

// gatherSpanFactor / gatherRegionValues bound the point gather's
// region-decode path: when one call's oids span at most
// gatherRegionValues values and at most gatherSpanFactor times the
// values it gathers, the whole span is decoded once into scratch and
// indexed raw — every block decodes once per call instead of once per
// block-cache miss. Clustered fetch patterns (the paper's point)
// always qualify: their oids are confined to a cache-sized region.
// Sparse or unbounded spans fall back to the one-block cache.
const (
	gatherSpanFactor   = 8
	gatherRegionValues = 1 << 20
)

// field0 is the attribute list of a DSM column gather.
var field0 = []int{0}

// gather is the point gather: it writes attributes cols of the items
// oids names into dst, len(oids) records of dstWidth values, starting
// at field dstOff. Raw input is read in place by the substrate loops:
// posjoin.FetchInto for a DSM column into a plain column, the nsm
// record loop for several attributes of an NSM image (whose oids come
// from the join over its own records), a checked strided copy
// otherwise. Compressed input decodes the oids' region once when they
// are dense enough and is then read like raw input; sparse oids go
// through the one-block cache. DSM selection oids are caller input, so
// an out-of-range one is an error on every path.
func (c Col) gather(cnt *compCounters, d *decoder, dst []int32, dstWidth, dstOff int, oids []OID, cols []int) error {
	if len(oids) == 0 {
		return nil
	}
	w, n := c.width(), c.Len()
	src, base := c.Raw, 0
	switch {
	case c.Enc == nil && c.Width == 0 && dstWidth == 1:
		return posjoin.FetchInto(dst, c.Raw, oids)
	case c.Enc == nil && len(cols) > 1:
		rel := nsm.Relation{Width: w, Data: c.Raw}
		return rel.GatherProjectInto(dst, dstWidth, dstOff, oids, cols)
	case c.Enc != nil:
		lo, hi := int(oids[0]), int(oids[0])
		for _, o := range oids[1:] {
			if int(o) < lo {
				lo = int(o)
			} else if int(o) > hi {
				hi = int(o)
			}
		}
		if hi >= n {
			return fmt.Errorf("exec: oid %d out of range [0,%d)", hi, n)
		}
		if span := (hi - lo + 1) * w; span > gatherRegionValues || span > gatherSpanFactor*len(oids)*len(cols) {
			for i, o := range oids {
				for k, a := range cols {
					v, err := d.fetch(cnt, c.Enc, int(o)*w+a)
					if err != nil {
						return err
					}
					dst[i*dstWidth+dstOff+k] = v
				}
			}
			return nil
		}
		base = lo * w
		base -= base % compress.BlockSize // align so interior blocks decode in place
		var err error
		if src, err = d.rangeInto(cnt, c.Enc, base, (hi+1)*w); err != nil {
			return err
		}
	}
	if len(cols) == 1 {
		off := cols[0] - base
		for i, o := range oids {
			if int(o) >= n {
				return fmt.Errorf("exec: oid %d out of range [0,%d)", o, n)
			}
			dst[i*dstWidth+dstOff] = src[int(o)*w+off]
		}
		return nil
	}
	for i, o := range oids {
		p, q := int(o)*w-base, i*dstWidth+dstOff
		rec, out := src[p:p+w], dst[q:q+len(cols)]
		for k, a := range cols {
			out[k] = rec[a]
		}
	}
	return nil
}

// consume counts a compressed operator input.
func (e *Engine) consume(c Col) {
	if c.Enc != nil {
		e.comp.cols.Add(1)
	}
}

// gatherClusters point-gathers the clusters bs of one morsel into out
// with one decoder scratch, so a cached block serves the next cluster
// too. A column fetch is the single cluster spanning its oid chunk.
func (e *Engine) gatherClusters(c Col, out []int32, oids []OID, bs ...bat.Border) error {
	d := newDecoder(c.Compressed())
	defer d.release()
	for _, b := range bs {
		if err := c.gather(&e.comp, d, out[b.Start:b.End], 1, 0, oids[b.Start:b.End], field0); err != nil {
			return err
		}
	}
	return nil
}

// scan runs body over the span reads of all n items of c as one
// declared scan: shareable under c's scan key, chunked like ForRanges.
func (e *Engine) scan(c Col, n int, body func(lo int, span []int32)) error {
	return e.SharedRanges(c.scanKey(n), n, func(r Range) error {
		d := newDecoder(c.Compressed())
		defer d.release()
		return c.spans(&e.comp, d, r, body)
	})
}

// ScanColumn extracts attribute col of every item — the strided
// key-extraction scan of the NSM post-projection strategies, or the
// decode of a compressed DSM column. A raw DSM column is returned
// as is. Concurrent pipelines sweeping the same source (any
// attribute, any projection list) share one pass on a scan-sharing
// runtime.
func (e *Engine) ScanColumn(c Col, col int) ([]int32, error) {
	n, err := c.check("ScanColumn", []int{col})
	if err != nil {
		return nil, err
	}
	if c.Enc == nil && c.Width == 0 {
		return c.Raw, nil
	}
	e.consume(c)
	w := c.width()
	out := make([]int32, n)
	err = e.scan(c, n, func(lo int, span []int32) {
		for i, p := lo, col; p < len(span); i, p = i+1, p+w {
			out[i] = span[p]
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanProject materialises the paper's "NSM projection routine" scan:
// attributes cols of every item as a new relation, shareable with
// every other scan over the same source (see ScanColumn).
func (e *Engine) ScanProject(c Col, name string, cols []int) (*nsm.Relation, error) {
	n, err := c.check("ScanProject", cols)
	if err != nil {
		return nil, err
	}
	e.consume(c)
	w, k := c.width(), len(cols)
	out := nsm.New(name, n, k)
	err = e.scan(c, n, func(lo int, span []int32) {
		for i, p := lo, 0; p < len(span); i, p = i+1, p+w {
			rec, dst := span[p:p+w], out.Data[i*k:i*k+k]
			for j, a := range cols {
				dst[j] = rec[a]
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GatherProjectInto fetches attributes cols of the items selected by
// oids into a row-major buffer of dstWidth-wide records at field
// offset dstOff, chunked over oid ranges (disjoint destination
// records). Partially clustered oid orders keep each chunk's record
// accesses — and, compressed, its decoded region — cache-sized.
func (e *Engine) GatherProjectInto(c Col, dst []int32, dstWidth, dstOff int, oids []OID, cols []int) error {
	if _, err := c.check("GatherProjectInto", cols); err != nil {
		return err
	}
	if dstOff < 0 || dstOff+len(cols) > dstWidth {
		return fmt.Errorf("exec: GatherProjectInto: fields [%d,%d) outside record width %d", dstOff, dstOff+len(cols), dstWidth)
	}
	if len(dst) != len(oids)*dstWidth {
		return fmt.Errorf("exec: GatherProjectInto: dst holds %d records, want %d", len(dst)/dstWidth, len(oids))
	}
	e.consume(c)
	return e.ForRanges(len(oids), func(r Range) error {
		d := newDecoder(c.Compressed())
		defer d.release()
		return c.gather(&e.comp, d, dst[r.Lo*dstWidth:r.Hi*dstWidth], dstWidth, dstOff, oids[r.Lo:r.Hi], cols)
	})
}

// GatherProject is GatherProjectInto materialising a new relation.
func (e *Engine) GatherProject(c Col, name string, oids []OID, cols []int) (*nsm.Relation, error) {
	out := nsm.New(name, len(oids), len(cols))
	if err := e.GatherProjectInto(c, out.Data, len(cols), 0, oids, cols); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchMany runs one Positional-Join per projection column
// (posjoin.FetchMany), each column gathered over contiguous oid
// ranges. The affinity key is the oid-range chunk, not the (column,
// chunk) task: every column's fetch of the same oid range homes on one
// worker, which then holds that range of the join-index hot across
// all π columns.
func (e *Engine) FetchMany(cols []Col, oids []OID) ([][]int32, error) {
	out := make([][]int32, len(cols))
	for c, col := range cols {
		e.consume(col)
		out[c] = make([]int32, len(oids))
	}
	if !e.parallel(len(oids)) {
		for c, col := range cols {
			if err := e.gatherClusters(col, out[c], oids, bat.Border{End: len(oids)}); err != nil {
				return nil, fmt.Errorf("column %d: %w", c, err)
			}
		}
		return out, nil
	}
	chunks := e.pool.chunksFor(len(oids))
	ntasks := len(cols) * len(chunks)
	errs := e.pool.errSlots(ntasks)
	e.pool.RunAff(ntasks, func(t int) uint64 { return uint64(t % len(chunks)) }, func(_, t int, _ *Scratch) {
		c, r := t/len(chunks), chunks[t%len(chunks)]
		if err := e.gatherClusters(cols[c], out[c], oids, bat.Border{Start: r.Lo, End: r.Hi}); err != nil {
			errs[t] = fmt.Errorf("column %d: %w", c, err)
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// Clustered is the clustered Positional-Join (posjoin.Clustered):
// cluster groups are morsels, each cluster's random access confined to
// one cache-sized region of c — for compressed input, one region
// decode or long runs against the same cached block.
func (e *Engine) Clustered(c Col, oids []OID, borders []bat.Border) ([]int32, error) {
	e.consume(c)
	if err := bat.ValidateBorders(borders, len(oids)); err != nil {
		return nil, err
	}
	out := make([]int32, len(oids))
	if !e.parallel(len(oids)) {
		if err := e.gatherClusters(c, out, oids, borders...); err != nil {
			return nil, err
		}
		return out, nil
	}
	groups := groupBorders(borders, e.pool.workers*morselsPerWorker, len(oids))
	errs := e.pool.errSlots(len(groups))
	e.pool.Run(len(groups), func(_, t int, _ *Scratch) {
		errs[t] = e.gatherClusters(c, out, oids, borders[groups[t].Lo:groups[t].Hi]...)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// StitchRows builds the [key | π] wide tuples of a DSM pre-projection
// scan: the key column streams through the span read while the
// projection columns are point-gathered through the selection oids.
// Declared for scan sharing under the key column's identity, so
// concurrent pre-projection queries over the same side are served by
// one pass.
func (e *Engine) StitchRows(keys Col, cols []Col, oids []OID) ([]int32, error) {
	n := keys.Len()
	if len(oids) != n {
		return nil, fmt.Errorf("exec: StitchRows: %d oids for %d keys", len(oids), n)
	}
	e.consume(keys)
	compressed := keys.Compressed()
	for _, c := range cols {
		e.consume(c)
		compressed = compressed || c.Compressed()
	}
	w := 1 + len(cols)
	rows := make([]int32, n*w)
	err := e.SharedRanges(keys.scanKey(n), n, func(r Range) error {
		d := newDecoder(compressed)
		defer d.release()
		err := keys.spans(&e.comp, d, r, func(lo int, span []int32) {
			for k, v := range span {
				rows[(lo+k)*w] = v
			}
		})
		if err != nil {
			return err
		}
		for j, c := range cols {
			if err := c.gather(&e.comp, d, rows[r.Lo*w:r.Hi*w], w, j+1, oids[r.Lo:r.Hi], field0); err != nil {
				return fmt.Errorf("column %d: %w", j, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
