package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory. Spans are recorded
// by the benchmark around its own calls into each layer; nothing
// inside the program is instrumented. A nil *tracer records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// span is one timed interval. Parent is the id of the span that
// caused it (0 for a root); Query groups the spans of one query.
type span struct {
	ID, Parent, Query int64
	Tid               int
	// Name is the span kind; Detail names the probe or plan shape.
	Name, Detail string
	Start, End   time.Time
}

// probeTid is the thread track kernel probes are drawn on.
const probeTid = 1000

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent's id is known before its
// children are recorded.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the mean self time in ms: each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		self := s.End.Sub(s.Start) - covered(s, children[s.ID])
		sum[s.Name] += msOf(self)
		count[s.Name]++
	}
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = v / float64(count[k])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(p.Start) {
			lo = p.Start
		}
		if hi.After(p.End) {
			hi = p.End
		}
		if hi.After(lo) {
			iv = append(iv, [2]time.Time{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			total += curHi.Sub(curLo)
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	return total + curHi.Sub(curLo)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing): one complete event per span, one
// thread track per client plus one for the kernel probes.
func (t *tracer) writeChrome(path, label string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": label}}}
	tids := map[int]bool{}
	for _, s := range t.spans {
		if !tids[s.Tid] {
			tids[s.Tid] = true
			name := fmt.Sprintf("client %d", s.Tid)
			if s.Tid == probeTid {
				name = "probes"
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Tid, Args: map[string]any{"name": name}})
		}
		name := s.Name
		if s.Detail != "" {
			name += " " + s.Detail
		}
		events = append(events, chromeEvent{
			Name: name, Cat: "perfbench", Ph: "X", Pid: 1, Tid: s.Tid,
			Ts: us(s.Start.Sub(t.t0)), Dur: us(s.End.Sub(s.Start)),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "query": s.Query},
		})
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
