package main

import (
	"fmt"
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9} // sorted: 1 3 5 7 9
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if q1, q3 := quartiles(xs); q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", q1, q3)
	}
	// Even count: interpolates between the middle ranks.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.75 || q3 != 3.25 {
		t.Errorf("quartiles of 1..4 = %v, %v, want 1.75, 3.25", q1, q3)
	}
	if got := median([]float64{42}); got != 42 {
		t.Errorf("median of one sample = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	if xs[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},   // 10 samples beyond the median
		{39, 50, true},   // 9.75 beyond p75: not enough
		{40, 75, true},   // 10 beyond p75
		{99, 75, true},   // 9.9 beyond p90
		{100, 90, true},  // 10 beyond p90
		{200, 95, true},  // 10 beyond p95
		{999, 95, true},  // 9.99 beyond p99
		{1000, 99, true}, // 10 beyond p99
		{10000, 99.9, true},
		{1000000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v, want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestTally(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Errorf("empty tally ratio = %v", tl.ratio())
	}
	tl.add("")
	tl.add("")
	tl.add("run 3: watchdog wedge")
	tl.add("")
	if tl.attempted != 4 || tl.failed != 1 || tl.ratio() != 0.25 {
		t.Errorf("tally = %d/%d ratio %v, want 1/4 ratio 0.25", tl.failed, tl.attempted, tl.ratio())
	}
	for i := 0; i < 2*maxReasons; i++ {
		tl.add(fmt.Sprintf("failure %d", i))
	}
	if tl.failed != 1+2*maxReasons || len(tl.reasons) != maxReasons {
		t.Errorf("failed %d with %d reasons kept, want %d with %d", tl.failed, len(tl.reasons), 1+2*maxReasons, maxReasons)
	}
	if tl.reasons[0] != "run 3: watchdog wedge" {
		t.Errorf("first reason = %q", tl.reasons[0])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 50},   // overlaps span 2 (a second worker)
		{ID: 4, Parent: 1, Name: "run", Start: 90, End: 120},  // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "step", Start: 12, End: 18},  // grandchild: counts against span 2 only
		{ID: 6, Parent: 0, Name: "open", Start: 200, End: -1}, // never closed
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summary(spans)
	if r := sum["run"]; r.Count != 3 || r.TotalS != 80e-9 || r.SelfS != 74e-9 || r.MedianS != 30e-9 {
		t.Errorf("run summary = %+v", r)
	}
	if _, ok := sum["open"]; ok {
		t.Error("an open span was summarized")
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 || tr.durations("x") != nil {
		t.Error("a nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	tr.end(child)
	tr.end(root)
	if len(tr.durations("child")) != 1 || tr.spans[child-1].Parent != root {
		t.Errorf("spans = %+v", tr.spans)
	}
}
