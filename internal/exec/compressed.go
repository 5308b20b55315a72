package exec

// Compressed execution (§5 footnote 5, "spend the bandwidth ceiling
// twice"): an operator input Col may carry a block-compressed
// encoding (internal/compress) as its execution format. The scan and
// gather operators of col.go read it through their two primitives —
// the span read decodes L1-sized spans into per-morsel decoder
// scratch, the point gather decodes a dense oid region once or goes
// through a one-block cache — so the tight loops run over decoded
// values while the memory bus carries only the compressed bytes. This
// file holds that decoder scratch and the CompStats accounting.
//
// The contract mirrors the rest of the engine: output bytes are a
// function of the decoded values only, never of whether the input was
// compressed, which engine ran it, or how morsels were scheduled. A
// decode of values [lo,hi) maps to the block range
// [lo/BlockSize, ceil(hi/BlockSize)); interior blocks decode straight
// into scratch, boundary blocks through a stack temporary inside
// compress.DecompressRangeInto.

import (
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
)

// CompStats counts a pipeline's compressed execution: how many
// compressed column inputs its operators consumed, the encoded bytes
// they read, the raw bytes that traffic replaced (SavedBytes =
// decoded - encoded, accumulated per decode, so re-decoding a block
// counts every pass — it measures bus traffic avoided, not storage),
// and the wall time spent inside block-decode loops.
type CompStats struct {
	Cols            int64
	CompressedBytes int64
	SavedBytes      int64
	DecodeNanos     int64
}

// Add returns the elementwise sum of a and b.
func (a CompStats) Add(b CompStats) CompStats {
	return CompStats{
		Cols:            a.Cols + b.Cols,
		CompressedBytes: a.CompressedBytes + b.CompressedBytes,
		SavedBytes:      a.SavedBytes + b.SavedBytes,
		DecodeNanos:     a.DecodeNanos + b.DecodeNanos,
	}
}

// DecodeTime returns the decode wall time as a duration.
func (a CompStats) DecodeTime() time.Duration { return time.Duration(a.DecodeNanos) }

// compCounters is the engine-side accumulator behind CompStats;
// workers update it with atomics from morsel bodies.
type compCounters struct {
	cols            atomic.Int64
	compressedBytes atomic.Int64
	savedBytes      atomic.Int64
	decodeNanos     atomic.Int64
}

func (c *compCounters) snapshot() CompStats {
	return CompStats{
		Cols:            c.cols.Load(),
		CompressedBytes: c.compressedBytes.Load(),
		SavedBytes:      c.savedBytes.Load(),
		DecodeNanos:     c.decodeNanos.Load(),
	}
}

// noteSpan accounts one decoded value span [lo,hi): the encoded bytes
// of the touched blocks and the raw bytes that read replaced.
func (c *compCounters) noteSpan(enc *compress.Encoded, lo, hi int) {
	if hi <= lo {
		return
	}
	b0, b1 := lo/compress.BlockSize, (hi+compress.BlockSize-1)/compress.BlockSize
	comp, raw := 0, 0
	for b := b0; b < b1; b++ {
		comp += enc.BlockBytes(b)
		raw += 4 * enc.BlockLen(b)
	}
	c.compressedBytes.Add(int64(comp))
	c.savedBytes.Add(int64(raw - comp))
}

// decodeSpanValues bounds the per-morsel scratch decode span: spans of
// at most this many int32s (16KB) keep the decoded working set
// L1-resident while the extraction loop runs over it.
const decodeSpanValues = 4 * compress.BlockSize

// decoder is compressed-column scratch: a range-decode buffer plus a
// one-block cache for gathers. Both grow monotonically and are reused
// across morsels; the decode loops never read stale contents, so they
// are harmless.
type decoder struct {
	buf    []int32
	blk    []int32
	blkEnc *compress.Encoded
	blkIdx int
}

// decoders pools decoder scratch. Operator bodies take it per morsel
// rather than from a worker's Scratch because shared scans serve
// chunks from whichever worker holds a serve token, so a body cannot
// be bound to one worker up front.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// newDecoder returns pooled scratch when the morsel reads compressed
// input and nil otherwise: raw reads never decode, so they never take
// scratch.
func newDecoder(compressed bool) *decoder {
	if !compressed {
		return nil
	}
	return decoders.Get().(*decoder)
}

// release returns the scratch to the pool (no-op on nil).
func (d *decoder) release() {
	if d != nil {
		d.blkEnc = nil // do not pin the column past the morsel
		decoders.Put(d)
	}
}

// rangeInto decodes values [lo,hi) into the decoder's buffer and
// returns the decoded span.
func (d *decoder) rangeInto(cnt *compCounters, enc *compress.Encoded, lo, hi int) ([]int32, error) {
	n := hi - lo
	if cap(d.buf) < n {
		d.buf = make([]int32, n)
	}
	buf := d.buf[:n]
	t := time.Now()
	if err := enc.DecompressRangeInto(buf, lo, hi); err != nil {
		return nil, err
	}
	cnt.decodeNanos.Add(time.Since(t).Nanoseconds())
	cnt.noteSpan(enc, lo, hi)
	return buf, nil
}

// fetch returns value idx of enc through the one-block cache — the
// compressed analogue of col[idx] in a Positional-Join loop; the
// caller bounds idx. Clustered
// fetch patterns confine consecutive idx values to a cache-sized
// region, so the same block serves long runs.
func (d *decoder) fetch(cnt *compCounters, enc *compress.Encoded, idx int) (int32, error) {
	b := idx / compress.BlockSize
	if d.blkEnc != enc || d.blkIdx != b {
		if cap(d.blk) < compress.BlockSize {
			d.blk = make([]int32, compress.BlockSize)
		}
		t := time.Now()
		if _, err := enc.DecompressBlockInto(d.blk[:compress.BlockSize], b); err != nil {
			return 0, err
		}
		cnt.decodeNanos.Add(time.Since(t).Nanoseconds())
		cb := enc.BlockBytes(b)
		cnt.compressedBytes.Add(int64(cb))
		cnt.savedBytes.Add(int64(4*enc.BlockLen(b) - cb))
		d.blkEnc, d.blkIdx = enc, b
	}
	return d.blk[idx%compress.BlockSize], nil
}

// CompStats returns the engine's accumulated compressed-execution
// counters.
func (e *Engine) CompStats() CompStats { return e.comp.snapshot() }
