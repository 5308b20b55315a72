package strategy

// Compressed execution at the strategy layer (§5 footnote 5): when a
// side carries block-compressed images of its columns, the strategies
// can run their scans, gathers and clustered fetches over the encoded
// bytes — the memory bus carries the compressed stream while per-morsel
// scratch holds the L1-resident decoded spans, so a bandwidth-bound
// plan's ceiling drops to the compression ratio. The representation is
// only a choice of operator input: a side hands the engine exec.Cols
// carrying the encodings or not, and the same operator calls run
// either way. The decision is the
// planner's: costmodel.PlanCompressed compares the raw plan against
// the transformed one (sequential bus traffic scaled by the measured
// ratio, CPU grown by the calibrated decode cost) at each
// representation's best worker count. Output bytes are identical
// either way — the raw arrays always coexist, and every operator
// decodes to exactly the same values.

import (
	"radixdecluster/internal/compress"
	"radixdecluster/internal/core"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/radix"
)

// CompressMode selects whether strategies execute over the sides'
// block-compressed column images.
type CompressMode int

const (
	// CompressOff executes over the raw arrays (default).
	CompressOff CompressMode = iota
	// CompressAuto lets the cost model decide per strategy: the
	// compression term shrinks the modeled bus traffic by the measured
	// ratio and charges the calibrated per-value decode cost, and the
	// cheaper representation wins (costmodel.PlanCompressed).
	CompressAuto
	// CompressOn executes compressed whenever an encoding is present.
	CompressOn
)

func (m CompressMode) String() string {
	switch m {
	case CompressAuto:
		return "auto"
	case CompressOn:
		return "on"
	}
	return "off"
}

// encodeShrinking returns enc(vals) when the encoding actually shrinks
// the bytes; incompressible (or empty) columns return nil and simply
// stay raw-only.
func encodeShrinking(vals []int32, enc func([]int32) (*compress.Encoded, error)) (*compress.Encoded, error) {
	if len(vals) == 0 {
		return nil, nil
	}
	e, err := enc(vals)
	if err != nil {
		return nil, err
	}
	if e.Ratio() >= 1 {
		return nil, nil
	}
	return e, nil
}

// Encode populates the side's compressed images with enc — typically
// compress.EncodeBest, or a closure pinning one scheme. Columns the
// encoding does not shrink stay raw-only.
func (s *DSMSide) Encode(enc func([]int32) (*compress.Encoded, error)) error {
	ke, err := encodeShrinking(s.Keys, enc)
	if err != nil {
		return err
	}
	s.KeysEnc = ke
	s.ColsEnc = make([]*compress.Encoded, len(s.Cols))
	for i, col := range s.Cols {
		if s.ColsEnc[i], err = encodeShrinking(col, enc); err != nil {
			return err
		}
	}
	return nil
}

// Encode populates the side's compressed record image (Rel.Data,
// row-major) when the encoding shrinks it.
func (s *NSMSide) Encode(enc func([]int32) (*compress.Encoded, error)) error {
	if s.Rel == nil {
		return nil
	}
	e, err := encodeShrinking(s.Rel.Data, enc)
	if err != nil {
		return err
	}
	s.Enc = e
	return nil
}

// hasEnc reports whether the side carries any compressed image.
func (s DSMSide) hasEnc() bool {
	if s.KeysEnc != nil {
		return true
	}
	for _, e := range s.ColsEnc {
		if e != nil {
			return true
		}
	}
	return false
}

// encs lists the side's encodings (nil entries are fine — the
// aggregator skips them).
func (s DSMSide) encs() []*compress.Encoded {
	return append([]*compress.Encoded{s.KeysEnc}, s.ColsEnc...)
}

// view returns projection column k as an operator input: compressed
// when requested and an encoding exists, raw otherwise.
func (s DSMSide) view(k int, comp bool) exec.Col {
	c := exec.Col{Raw: s.Cols[k]}
	if comp && k < len(s.ColsEnc) {
		c.Enc = s.ColsEnc[k]
	}
	return c
}

// views returns every projection column as an operator input.
func (s DSMSide) views(comp bool) []exec.Col {
	out := make([]exec.Col, len(s.Cols))
	for k := range s.Cols {
		out[k] = s.view(k, comp)
	}
	return out
}

// keysView returns the key column as an operator input.
func (s DSMSide) keysView(comp bool) exec.Col {
	c := exec.Col{Raw: s.Keys}
	if comp {
		c.Enc = s.KeysEnc
	}
	return c
}

// col returns the side's record array as an operator input: the
// compressed image when comp asks for it and one exists, raw otherwise.
func (s NSMSide) col(comp bool) exec.Col {
	c := exec.Col{Raw: s.Rel.Data, Width: s.Rel.Width}
	if comp {
		c.Enc = s.Enc
	}
	return c
}

// compressionTerm aggregates encodings into the cost model's
// compression term: the byte-weighted compression ratio, the total
// values one decode pass covers, and the value-weighted calibrated
// decode cost. Zero (disabled) when the mode is off or nothing is
// encoded.
func (c Config) compressionTerm(encs ...*compress.Encoded) costmodel.Compression {
	if c.Compress == CompressOff {
		return costmodel.Compression{}
	}
	var raw, enc int64
	var values int
	var ns float64
	for _, e := range encs {
		if e == nil || e.Len() == 0 {
			continue
		}
		raw += int64(e.RawBytes())
		enc += int64(e.CompressedBytes())
		values += e.Len()
		ns += float64(e.Len()) * costmodel.DecodeNanos(e.Scheme())
	}
	if values == 0 || raw == 0 {
		return costmodel.Compression{}
	}
	return costmodel.Compression{
		Ratio:    float64(enc) / float64(raw),
		Values:   values,
		DecodeNs: ns / float64(values),
	}
}

// decideCompress resolves Config.Compress for one strategy given its
// serial cost and per-worker parallel cost family: whether to execute
// compressed, and the AutoParallelism worker count under the winning
// representation. CompressOn forces the representation but still takes
// the model's worker count.
func (c Config) decideCompress(m costmodel.Model, cp costmodel.Compression, serial costmodel.Cost, parallel func(int) costmodel.Cost) (bool, int) {
	use, w := costmodel.PlanCompressed(m, c.maxWorkers(), serial, parallel, cp)
	if c.Compress == CompressOn {
		use = true
	}
	return use, w
}

// planDSMPost is PlanParallelism's shape derivation plus the
// compressed-vs-raw decision for DSM post-projection.
func (c Config) planDSMPost(nJI, baseN, pi int, cp costmodel.Compression) (bool, int) {
	h := c.hier()
	cache := h.LLC().Size
	bits := c.LargerBits
	if bits == 0 {
		bits = radix.OptimalBits(baseN, 4, cache)
	}
	window := c.Window
	if window == 0 {
		window = core.PlanWindow(h, 4)
	}
	m := c.model()
	b, p := max(1, bits), max(1, pi)
	serial := costmodel.DSMPostDecluster(m, nJI, baseN, 4, b, p, window)
	return c.decideCompress(m, cp, serial, func(w int) costmodel.Cost {
		return costmodel.DSMPostDeclusterParallel(m, w, nJI, baseN, 4, b, p, window)
	})
}

// planRowsComp is the compressed-vs-raw decision for the
// pre-projection strategies.
func (c Config) planRowsComp(nL, nS, lw, sw, bits int, cp costmodel.Compression) (bool, int) {
	m := c.model()
	serial := costmodel.PreProjectionRows(m, nL, nS, lw*4, sw*4, bits, nL)
	return c.decideCompress(m, cp, serial, func(w int) costmodel.Cost {
		return costmodel.PreProjectionRowsParallel(m, w, nL, nS, lw*4, sw*4, bits, nL)
	})
}

// planNSMPostComp is the compressed-vs-raw decision for NSM
// post-projection with the Radix algorithms.
func (c Config) planNSMPostComp(nJI, baseN, omegaBytes, projBytes, bits, window int, cp costmodel.Compression) (bool, int) {
	m := c.model()
	b := max(1, bits)
	serial := costmodel.NSMPostDecluster(m, nJI, baseN, omegaBytes, projBytes, b, window)
	return c.decideCompress(m, cp, serial, func(w int) costmodel.Cost {
		return costmodel.NSMPostDeclusterParallel(m, w, nJI, baseN, omegaBytes, projBytes, b, window)
	})
}

// planJiveComp is the compressed-vs-raw decision for NSM
// post-projection with Jive-Join.
func (c Config) planJiveComp(nJI, leftN, rightN, omegaBytes, projBytes, bits int, cp costmodel.Compression) (bool, int) {
	m := c.model()
	b := max(1, bits)
	serial := costmodel.JivePost(m, nJI, leftN, rightN, omegaBytes, projBytes, b)
	return c.decideCompress(m, cp, serial, func(w int) costmodel.Cost {
		return costmodel.JivePostParallel(m, w, nJI, leftN, rightN, omegaBytes, projBytes, b)
	})
}
