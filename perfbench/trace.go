package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer started, and the span that caused it
// (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer is the untraced mode: every method is a no-op, so call
// sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// durations returns the lengths in seconds of every closed span named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its children (the union of the children's
// intervals clipped to the parent, so concurrent children are not
// subtracted twice). Open spans count as zero-length.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			out[s.ID] = 0
			continue
		}
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	started := false
	for _, iv := range clipped {
		switch {
		case !started:
			curA, curB, started = iv[0], iv[1], true
		case iv[0] <= curB:
			if iv[1] > curB {
				curB = iv[1]
			}
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

// summary aggregates total, self and median time per span name.
func summary(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(self[s.ID]) / 1e9
		out[s.Name] = lt
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e9)
	}
	for name, lt := range out {
		lt.MedianS = median(durs[name])
		out[name] = lt
	}
	return out
}

// write dumps the spans, their per-name summary and the run metadata
// as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Meta    map[string]any       `json:"meta"`
		Summary map[string]layerTime `json:"summary"`
		Spans   []span               `json:"spans"`
	}{meta, summary(t.spans), t.spans}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
