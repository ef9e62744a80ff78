package main

import (
	"fmt"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one sweep
// cell share its Cell index (-1 outside cells); Parent is the span that
// made the call (0 at the root).
type span struct {
	ID, Parent     int
	Name           string
	Cell           int
	StartMS, EndMS float64
}

// tracer keeps spans in memory until the run ends, when summary prints
// them aggregated by name. A nil *tracer records nothing, so untraced
// runs make the same calls without the clock reads. Safe for concurrent
// use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since() float64 {
	return float64(time.Since(t.origin)) / float64(time.Millisecond)
}

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, StartMS: now})
	return len(t.spans)
}

// close ends the span open returned.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].EndMS = now
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name,
// in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.EndMS-s.StartMS)*float64(time.Millisecond)/float64(unit))
		}
	}
	return out
}

// summary prints, per span name, the count, the total time and the
// self time: each span's duration minus the part its child spans cover
// (children run one after another on the parent's goroutine).
func (t *tracer) summary() {
	t.mu.Lock()
	defer t.mu.Unlock()
	childMS := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		childMS[s.Parent] += s.EndMS - s.StartMS
	}
	type agg struct {
		n             int
		total, selfMS float64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.EndMS - s.StartMS
		a.n++
		a.total += d
		a.selfMS += d - childMS[s.ID]
	}
	for _, name := range names {
		a := byName[name]
		fmt.Printf("span %s n=%d total_ms=%.1f self_ms=%.1f\n", name, a.n, a.total, a.selfMS)
	}
}

// sum adds up xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
