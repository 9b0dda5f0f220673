package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public calls it makes (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
}

// tracer keeps spans in memory; the parent writes them out when the run
// ends. Spans nest under the span most recently pushed.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the current parent and returns its id.
func (t *tracer) begin(name, layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Name: name, Layer: layer, StartNs: int64(time.Since(t.origin))}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.origin))
	return time.Duration(s.EndNs - s.StartNs)
}

// push makes the span the parent of the spans begun until pop.
func (t *tracer) push(id int) {
	t.mu.Lock()
	t.stack = append(t.stack, id)
	t.mu.Unlock()
}

func (t *tracer) pop() {
	t.mu.Lock()
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
	var total int64
	cur := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, cur), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}
