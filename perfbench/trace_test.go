package main

import (
	"math"
	"testing"
	"time"
)

func span(id, parent uint64, start, end int64) Span {
	return Span{ID: id, Parent: parent, Req: 1, Start: start, End: end}
}

// TestSelfTimes covers the self-time arithmetic on synthetic trees:
// sequential children, overlapping (parallel) children counted once,
// children running past the parent clipped, and grandchildren charged
// to their own parent only.
func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  map[uint64]time.Duration
	}{
		{"leaf", []Span{span(1, 0, 0, 100)}, map[uint64]time.Duration{1: 100}},
		{"sequential children", []Span{
			span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 40, 70),
		}, map[uint64]time.Duration{1: 50, 2: 20, 3: 30}},
		{"overlapping children count once", []Span{
			span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 20, 80), span(4, 1, 30, 40),
		}, map[uint64]time.Duration{1: 30, 2: 50, 3: 60, 4: 10}},
		{"child outruns parent", []Span{
			span(1, 0, 0, 100), span(2, 1, 90, 150), span(3, 1, -20, 5),
		}, map[uint64]time.Duration{1: 85, 2: 60, 3: 25}},
		{"grandchildren", []Span{
			span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 10, 40), span(4, 3, 15, 20),
		}, map[uint64]time.Duration{1: 50, 2: 20, 3: 25, 4: 5}},
		{"disjoint from parent", []Span{
			span(1, 0, 0, 100), span(2, 1, 200, 300),
		}, map[uint64]time.Duration{1: 100, 2: 100}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: span %d self %v, want %v", c.name, id, got[id], want)
			}
		}
	}
}

// TestTailPercentile covers the rule: the highest percentile with at
// least ten samples beyond it, none below twenty samples.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true},
		{100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if pctLabel(0.9) != "p90" || pctLabel(0.999) != "p99.9" || pctLabel(0.5) != "p50" {
		t.Errorf("labels: %s %s %s", pctLabel(0.9), pctLabel(0.999), pctLabel(0.5))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(append([]float64(nil), xs...), c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// TestDistShares checks the wire share: a replayed coordinator call
// minus its slowest replica span, with replica spans under the front's
// own handler counted as replica time.
func TestDistShares(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client /v1/query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler /v1/query", Start: 5, End: 95},
		{ID: 3, Parent: 2, Name: "dist.call", Start: 10, End: 80},
		{ID: 4, Parent: 3, Name: "replica /v1/partial", Start: 12, End: 70},
		{ID: 5, Name: "shard.group", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "dist.call", Start: 205, End: 280},
		{ID: 7, Parent: 6, Name: "replica /v1/partial", Start: 210, End: 250},
		{ID: 8, Parent: 5, Name: "dist.call", Start: 205, End: 290},
		{ID: 9, Parent: 8, Name: "replica /v1/partial", Start: 210, End: 270},
	}
	lm := newLayerMetrics(spans)
	replica, wire := lm.dist()
	if len(replica) != 1 || replica[0] != 58 {
		t.Errorf("replica spans %v, want [58]", replica)
	}
	if len(wire) != 1 || wire[0] != 40 {
		t.Errorf("wire %v, want [40] (100 minus the slowest replica's 60)", wire)
	}
	if got := lm.transportMS(); got != 10/1e6 {
		t.Errorf("transport %v ms, want 1e-05", got)
	}
}
