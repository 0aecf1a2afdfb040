package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Request; Parent is the ID of the span that caused this one (0 for
// a root). Times are nanoseconds since the tracer was created.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanCapacity bounds the in-memory span log. The busiest workload
// (serve) records about four spans per request, a few tens of thousands
// per run; spans beyond the capacity are counted as dropped, never
// allocated.
const spanCapacity = 1 << 19

// tracer keeps spans in a preallocated slice and writes them out once the
// measurement ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span // span ID i lives at spans[i-1]
	dropped int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, spanCapacity)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// begin opens a span starting now and returns its ID (0 when untraced or
// full).
func (t *tracer) begin(name string, parent, request int64) int64 {
	if t == nil {
		return 0
	}
	return t.add(name, parent, request, time.Now(), time.Time{})
}

// end closes the span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record logs a span whose bounds the caller already measured.
func (t *tracer) record(name string, parent, request int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.add(name, parent, request, start, end)
}

func (t *tracer) add(name string, parent, request int64, start, end time.Time) int64 {
	s := span{Name: name, Parent: parent, Request: request, Start: t.ns(start)}
	if !end.IsZero() {
		s.End = t.ns(end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the spans as JSON lines in dir/spans-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// spanStats aggregates one span name: the summed duration and the summed
// self time of its spans.
type spanStats struct {
	total, self time.Duration
}

// selfTimes returns each span's self time, indexed like t.spans: its
// duration minus the part of its interval its children cover. Children of
// one parent may overlap (concurrent senders), so coverage is the union of
// their intervals clipped to the parent.
func (t *tracer) selfTimes() []int64 {
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// summarize folds the span log by name.
func (t *tracer) summarize() map[string]*spanStats {
	self := t.selfTimes()
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(self[i])
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	curS, curE := int64(0), int64(0)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			sum += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return sum + curE - curS
}

// unattributed returns the share of the root span's time that no layer
// span covers: the self time of the benchmark's own structural spans
// (names starting with "bench.") in the root's subtree, over the root's
// duration. A span's parent always has a smaller ID, so one forward pass
// finds the subtree.
func (t *tracer) unattributed(root int64) (float64, error) {
	if root == 0 {
		return 0, fmt.Errorf("trace has no root span")
	}
	self := t.selfTimes()
	inRoot := make([]bool, len(t.spans)+1)
	var bench int64
	for i, s := range t.spans {
		inRoot[s.ID] = s.ID == root || inRoot[s.Parent]
		if inRoot[s.ID] && strings.HasPrefix(s.Name, "bench.") {
			bench += self[i]
		}
	}
	r := t.spans[root-1]
	return float64(bench) / float64(r.End-r.Start), nil
}
