package exec

import (
	"fmt"
	"reflect"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/posjoin"
)

// encode compresses a column under Best, failing the test on error.
func encode(t *testing.T, vals []int32) *compress.Encoded {
	t.Helper()
	e, err := compress.EncodeBest(vals)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// opCase is one row of the operator table: run executes the operator
// over raw or compressed input, want is the serial substrate's result,
// and compCols the compressed inputs the compressed run consumes.
type opCase struct {
	name     string
	run      func(e *Engine, compressed bool) (any, error)
	want     any
	compCols int64
}

// operatorCases builds the table. Compressed FetchMany and StitchRows
// mix a compressed and a raw column, so one call covers both point
// gathers; the stitch's key column carries both forms.
func operatorCases(t *testing.T) []opCase {
	var cases []opCase
	add := func(name string, want any, compCols int64, run func(e *Engine, compressed bool) (any, error)) {
		cases = append(cases, opCase{name, run, want, compCols})
	}
	pick := func(compressed bool, raw, enc Col) Col {
		if compressed {
			return enc
		}
		return raw
	}

	col := randVals(41, testN, false)
	colEnc := encode(t, col)
	add("ScanColumn/column", col, 1, func(e *Engine, comp bool) (any, error) {
		return e.ScanColumn(pick(comp, Col{Raw: col}, Col{Enc: colEnc}), 0)
	})

	rel4 := testRelation(47, testN, 4)
	rec4 := Col{Raw: rel4.Data, Width: 4}
	enc4 := Col{Enc: encode(t, rel4.Data), Width: 4}
	for a := 0; a < 4; a++ {
		add(fmt.Sprintf("ScanColumn/records-attr%d", a), rel4.ScanColumn(a), 1, func(e *Engine, comp bool) (any, error) {
			return e.ScanColumn(pick(comp, rec4, enc4), a)
		})
	}

	rel5 := testRelation(48, testN, 5)
	proj := []int{3, 0, 4}
	add("ScanProject", rel5.ScanProject("proj", proj), 1, func(e *Engine, comp bool) (any, error) {
		return e.ScanProject(pick(comp, Col{Raw: rel5.Data, Width: 5}, Col{Enc: encode(t, rel5.Data), Width: 5}), "proj", proj)
	})

	oids := randOIDs(50, testN, testN)
	attrs := []int{2, 1}
	gathered := rel4.GatherProject("g", oids, attrs)
	add("GatherProject", gathered, 1, func(e *Engine, comp bool) (any, error) {
		return e.GatherProject(pick(comp, rec4, enc4), "g", oids, attrs)
	})
	strided := make([]int32, len(oids)*3)
	for i := range oids {
		copy(strided[i*3+1:i*3+3], gathered.Data[i*2:i*2+2])
	}
	add("GatherProjectInto/strided", strided, 1, func(e *Engine, comp bool) (any, error) {
		dst := make([]int32, len(oids)*3)
		return dst, e.GatherProjectInto(pick(comp, rec4, enc4), dst, 3, 1, oids, attrs)
	})

	cols := [][]int32{randVals(42, testN, false), randVals(43, testN, true)}
	fetched, err := posjoin.FetchMany(cols, oids)
	if err != nil {
		t.Fatal(err)
	}
	col0Enc := encode(t, cols[0])
	add("FetchMany", fetched, 1, func(e *Engine, comp bool) (any, error) {
		return e.FetchMany([]Col{pick(comp, Col{Raw: cols[0]}, Col{Enc: col0Enc}), {Raw: cols[1]}}, oids)
	})

	const parts = 64
	borders := make([]bat.Border, parts)
	per := testN / parts
	for i := range borders {
		borders[i] = bat.Border{Start: i * per, End: (i + 1) * per}
	}
	borders[parts-1].End = testN
	clustered, err := posjoin.Clustered(col, oids, borders)
	if err != nil {
		t.Fatal(err)
	}
	add("Clustered", clustered, 1, func(e *Engine, comp bool) (any, error) {
		return e.Clustered(pick(comp, Col{Raw: col}, Col{Enc: colEnc}), oids, borders)
	})

	keys := randVals(52, testN, false)
	keysBoth := Col{Raw: keys, Enc: encode(t, keys)}
	stitched := make([]int32, testN*3)
	for i := range keys {
		stitched[i*3], stitched[i*3+1], stitched[i*3+2] = keys[i], col[oids[i]], cols[1][oids[i]]
	}
	add("StitchRows", stitched, 2, func(e *Engine, comp bool) (any, error) {
		return e.StitchRows(pick(comp, Col{Raw: keys}, keysBoth),
			[]Col{pick(comp, Col{Raw: col}, Col{Enc: colEnc}), {Raw: cols[1]}}, oids)
	})
	return cases
}

// TestOperatorsMatchSubstrate runs every scan and gather operator
// over raw and compressed input on every engine kind — serial, owned
// pools of each test worker count, and a scan-sharing runtime — and
// compares it byte for byte with the serial substrate (posjoin, nsm).
// It also pins the compressed-input accounting: a raw run consumes no
// compressed column, a compressed run exactly its compressed inputs.
func TestOperatorsMatchSubstrate(t *testing.T) {
	cases := operatorCases(t)
	type engine struct {
		name string
		e    *Engine
	}
	engines := []engine{{"serial", NewEngine(0)}}
	for _, w := range workerCounts {
		engines = append(engines, engine{fmt.Sprintf("workers=%d", w), NewEngine(w)})
	}
	rt := NewRuntimeOpts(Options{Workers: 2, MaxConcurrent: 2, ShareScans: true})
	defer rt.Close()
	engines = append(engines, engine{"runtime", &Engine{pool: rt.NewPool(2)}})
	defer func() {
		for _, en := range engines {
			en.e.Close()
		}
	}()
	for _, c := range cases {
		for _, comp := range []bool{false, true} {
			source := "raw"
			if comp {
				source = "compressed"
			}
			for _, en := range engines {
				t.Run(c.name+"/"+source+"/"+en.name, func(t *testing.T) {
					before := en.e.CompStats().Cols
					got, err := c.run(en.e, comp)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, c.want) {
						t.Fatal("result differs from the serial substrate")
					}
					want := int64(0)
					if comp {
						want = c.compCols
					}
					if d := en.e.CompStats().Cols - before; d != want {
						t.Fatalf("consumed %d compressed columns, want %d", d, want)
					}
				})
			}
		}
	}
}

func TestCompressedOpErrors(t *testing.T) {
	vals := randVals(51, 4*compress.BlockSize, false)
	enc := encode(t, vals)
	for _, src := range []Col{{Raw: vals}, {Enc: enc}} {
		for _, e := range []*Engine{NewEngine(0), NewEngine(2)} {
			tag := fmt.Sprintf("compressed=%v workers=%d", src.Compressed(), e.Workers())
			rec := src
			rec.Width = 3
			if _, err := e.ScanColumn(rec, 0); err == nil {
				t.Fatalf("%s: non-divisible width accepted", tag)
			}
			rec.Width = 4
			if _, err := e.ScanColumn(rec, 4); err == nil {
				t.Fatalf("%s: column outside width accepted", tag)
			}
			if _, err := e.FetchMany([]Col{src}, []OID{OID(len(vals))}); err == nil {
				t.Fatalf("%s: out-of-range oid accepted", tag)
			}
			if err := e.GatherProjectInto(rec, make([]int32, 4), 2, 1, []OID{0, 1}, []int{0, 1}); err == nil {
				t.Fatalf("%s: fields outside dst width accepted", tag)
			}
			// A selection oid past the projection columns must fail the
			// stitch, not crash the worker running it.
			oids := make([]OID, len(vals))
			oids[len(oids)-1] = OID(len(vals) + 100)
			if _, err := e.StitchRows(Col{Raw: vals}, []Col{src}, oids); err == nil {
				t.Fatalf("%s: out-of-range stitch oid accepted", tag)
			}
			e.Close()
		}
	}
}

// TestCompStatsAccounting pins the counter semantics: a compressed
// column decode accounts the whole column's encoded bytes, a positive
// saving for compressible data, and nonzero decode time.
func TestCompStatsAccounting(t *testing.T) {
	vals := make([]int32, testN)
	for i := range vals {
		vals[i] = int32(i) // dense: compresses hard
	}
	enc := encode(t, vals)
	e := NewEngine(2)
	defer e.Close()
	if _, err := e.ScanColumn(Col{Enc: enc}, 0); err != nil {
		t.Fatal(err)
	}
	st := e.CompStats()
	if st.Cols != 1 {
		t.Fatalf("Cols = %d, want 1", st.Cols)
	}
	if st.CompressedBytes < int64(enc.CompressedBytes()) {
		t.Fatalf("CompressedBytes = %d, want >= %d", st.CompressedBytes, enc.CompressedBytes())
	}
	if st.SavedBytes <= 0 {
		t.Fatalf("SavedBytes = %d, want > 0 for dense data", st.SavedBytes)
	}
	if st.DecodeNanos <= 0 {
		t.Fatalf("DecodeNanos = %d, want > 0", st.DecodeNanos)
	}
}

// TestRawOperatorAllocs pins the raw paths' allocation counts on the
// serial engine: a raw DSM column scan returns the column itself, and
// the record scan, the column fetch and the record gather allocate
// only their results and chunk-body closures — raw input never copies
// into, or takes, decoder scratch.
func TestRawOperatorAllocs(t *testing.T) {
	rel := testRelation(60, 4096, 4)
	rec := Col{Raw: rel.Data, Width: 4}
	cols := []Col{{Raw: randVals(61, 4096, false)}, {Raw: randVals(62, 4096, false)}}
	oids := randOIDs(63, 4096, 4096)
	dst := make([]int32, len(oids)*3)
	e := NewEngine(0)
	if got, _ := e.ScanColumn(cols[0], 0); &got[0] != &cols[0].Raw[0] {
		t.Fatal("raw column scan copied the column")
	}
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"ScanColumn/column", 0, func() { _, _ = e.ScanColumn(cols[0], 0) }},
		{"ScanColumn/records", 3, func() { _, _ = e.ScanColumn(rec, 1) }},
		{"FetchMany", 3, func() { _, _ = e.FetchMany(cols, oids) }},
		{"GatherProjectInto", 2, func() { _ = e.GatherProjectInto(rec, dst, 3, 1, oids, []int{2, 0}) }},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max {
			t.Errorf("%s: %v allocs per run, want <= %v", c.name, got, c.max)
		}
	}
}
