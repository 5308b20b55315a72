package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	rd "radixdecluster"
	"radixdecluster/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its reference child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smoke runs a workload at 1/64 of its size for a short window.
func smoke(t *testing.T, wl string, trace int, extra ...string) (code int, out resultLine, stdout string) {
	t.Helper()
	args := append([]string{
		"--workload", wl, "--seed", "7", "--seconds", "1", "--scale", "6",
		"--setups", "1", "--min-queries", "1", "--trace", []string{"0", "1"}[trace],
		"--trace-out", filepath.Join(t.TempDir(), "trace.json"),
	}, extra...)
	var so, se bytes.Buffer
	code = run(args, &so, &se)
	lines := strings.Split(strings.TrimSpace(so.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", wl, err, so.String(), se.String())
	}
	return code, out, so.String()
}

func TestSmokePrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, specs := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
			code, out, stdout := smoke(t, w.name, trace)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", w.name, trace, code, out, stdout)
			}
			if len(out.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics printed, want %d", w.name, trace, len(out.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := out.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, s.name, m, s.unit)
				}
			}
		}
	}
}

// TestIdlePredictions checks the layers each engine workload must
// leave idle.
func TestIdlePredictions(t *testing.T) {
	_, large, largeOut := smoke(t, "engine-large", 1)
	if v := large.Metrics["compress.decode_ms_per_query"].Value; v != 0 {
		t.Errorf("engine-large decodes %g ms per query, want 0", v)
	}
	if v := large.Metrics["exec.workers"].Value; v < 1 {
		t.Errorf("engine-large ran on %g workers, want the parallel executor", v)
	}
	_, serial, serialOut := smoke(t, "engine-serial-compressed", 1)
	for name, m := range serial.Metrics {
		if hasPrefix(name, "exec.", "mempool.") && m.Value != 0 {
			t.Errorf("engine-serial-compressed: %s = %g, want 0", name, m.Value)
		}
	}
	if v := serial.Metrics["compress.decode_ms_per_query"].Value; v <= 0 {
		t.Errorf("engine-serial-compressed decodes %g ms per query, want > 0", v)
	}
	for wl, stdout := range map[string]string{"engine-large": largeOut, "engine-serial-compressed": serialOut} {
		for _, line := range strings.Split(stdout, "\n") {
			if f := strings.Fields(line); len(f) > 0 && hasPrefix(f[0], "wire.", "server.") && !strings.Contains(line, "absent") {
				t.Errorf("%s: %q should be absent", wl, line)
			}
		}
	}
}

func TestCorruptReferenceFails(t *testing.T) {
	code, out, _ := smoke(t, "engine-serial-compressed", 0, "--inject", "corrupt-ref")
	if code == 0 || out.Correct {
		t.Fatalf("exit %d, correct %v: a corrupted reference must fail the run", code, out.Correct)
	}
	if out.Failed == 0 || out.Failed >= out.Attempted {
		t.Errorf("failed %d of %d, want exactly the corrupted strategy's queries", out.Failed, out.Attempted)
	}
}

func TestTruncatedStreamFails(t *testing.T) {
	code, out, _ := smoke(t, "service-mixed", 0, "--inject", "truncate-stream")
	if code == 0 || out.Correct {
		t.Fatalf("exit %d, correct %v: truncated streams must fail the run", code, out.Correct)
	}
	if out.Failed != out.Attempted {
		t.Errorf("failed %d of %d, want every query", out.Failed, out.Attempted)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this command's metric
// and workload lists identical.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, command %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}

func TestDecodeNDJSON(t *testing.T) {
	stream := `{"n":3,"names":["a","b"],"plan":"p","workers":0,"compressed":false}
{"rows":[[1,-2],[2147483647,-2147483648]]}
{"rows":[[0,5]]}
{"rowsStreamed":3,"timing":{"totalMs":1.5},"sharedScanHits":0}
`
	nd := newNDJSONDecoder()
	h, f, cols, err := nd.decode(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 2147483647, 0}, {-2, -2147483648, 5}}
	if h.N != 3 || f.RowsStreamed != 3 || f.Timing.TotalMs != 1.5 || !digestOf(cols).equal(digestOf(want)) {
		t.Fatalf("decoded %+v %+v %v", h, f, cols)
	}
	for name, bad := range map[string]string{
		"truncated":    stream[:len(stream)-40],
		"wide row":     strings.Replace(stream, "[0,5]", "[0,5,6]", 1),
		"narrow row":   strings.Replace(stream, "[0,5]", "[0]", 1),
		"overflow":     strings.Replace(stream, "2147483647", "2147483648", 1),
		"row count":    strings.Replace(stream, `"rowsStreamed":3`, `"rowsStreamed":4`, 1),
		"after footer": stream + "{}\n",
	} {
		if _, _, _, err := nd.decode(strings.NewReader(bad)); !errors.Is(err, errNDJSON) {
			t.Errorf("%s: err = %v, want errNDJSON", name, err)
		}
	}
}

// TestDecodeNDJSONLongLine covers a chunk line longer than the
// decoder's read buffer.
func TestDecodeNDJSONLongLine(t *testing.T) {
	const n = 200000
	var b strings.Builder
	b.WriteString(`{"n":200000,"names":["a","b"]}` + "\n" + `{"rows":[`)
	want := [][]int32{make([]int32, n), make([]int32, n)}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i, -i)
		want[0][i], want[1][i] = int32(i), int32(-i)
	}
	b.WriteString("]}\n" + `{"rowsStreamed":200000}` + "\n")
	_, _, cols, err := newNDJSONDecoder().decode(strings.NewReader(b.String()))
	if err != nil || !digestOf(cols).equal(digestOf(want)) {
		t.Fatalf("long line: %v", err)
	}
}

func TestEngineSampleVerifies(t *testing.T) {
	d, err := genData(1<<12, 3)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := computeReferences(d)
	if err != nil {
		t.Fatal(err)
	}
	e, err := openEngine(d, refs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.warm(); err != nil {
		t.Fatal(err)
	}
	if s := e.one(0, 0, 0, nil); s.failed || s.rows != refs[0].Rows {
		t.Fatalf("engine sample %+v, reference rows %d", s, refs[0].Rows)
	}
	refs[1].Cols[0] ^= 1
	if s := e.one(1, 1, 0, nil); !s.failed || !s.wrong {
		t.Fatalf("sample against a corrupted reference: %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	root := tr.id()
	tr.record(span{ID: root, Name: "query", Start: at(0), End: at(10)})
	tr.record(span{Parent: root, Name: "engine", Start: at(1), End: at(5)})
	tr.record(span{Parent: root, Name: "verify", Start: at(4), End: at(7)})
	self := tr.selfTimes()
	if self["query"] != 4 || self["engine"] != 4 || self["verify"] != 3 {
		t.Fatalf("self times %v, want query 4, engine 4, verify 3", self)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.writeChrome(path, "test"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != 5 {
		t.Fatalf("trace file: %v, %d events, want 3 spans + 2 metadata", err, len(doc.TraceEvents))
	}
}

func TestWireRoundTrip(t *testing.T) {
	d, err := genData(1<<12, 9)
	if err != nil {
		t.Fatal(err)
	}
	cols := [][]int32{d.larger[1].Values, d.larger[2].Values}
	res := &rd.Result{N: len(cols[0]), Names: []string{"a", "b"}, Cols: cols}
	for _, comp := range []wire.Compression{wire.CompressOff, wire.CompressAuto} {
		var buf bytes.Buffer
		if err := encodeWire(&buf, res, comp); err != nil {
			t.Fatal(err)
		}
		dec, err := wire.Decode(&buf)
		if err != nil || !digestOf(dec.Cols).equal(digestOf(cols)) {
			t.Fatalf("compression %d: round trip: %v", comp, err)
		}
	}
}
