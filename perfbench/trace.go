package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one client
// request share Req; Parent is the span that caused this one (0 for the
// client's request span itself).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory; Write saves them once the run ends.
// A nil *Recorder records nothing, so untraced code paths pay one nil
// check per boundary.
type Recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Open starts a span and returns it with its ID assigned; Close
// records it.
func (r *Recorder) Open(name string, req, parent uint64) Span {
	if r == nil {
		return Span{}
	}
	return Span{ID: r.next.Add(1), Parent: parent, Req: req, Name: name, Start: r.now()}
}

// Close ends s and records it.
func (r *Recorder) Close(s Span) {
	if r == nil {
		return
	}
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Time runs fn inside a span named name.
func (r *Recorder) Time(name string, req, parent uint64, fn func()) {
	s := r.Open(name, req, parent)
	fn()
	r.Close(s)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Write saves the spans as JSON lines.
func (r *Recorder) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// spanCtx carries the caller's span through a context, so spans opened
// by the coordinator's replica client and by the replica middleware
// attach to the request that caused them.
type spanCtx struct{ req, parent uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, req, parent uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{req, parent})
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	return sc, ok
}

// selfTimes returns each span's self time: its length minus the part
// of its interval that its children cover. Children may overlap each
// other (parallel replica calls) or outrun the parent (a client span
// cut short); only the covered part inside the parent counts, once.
func selfTimes(spans []Span) map[uint64]time.Duration {
	kids := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// Percentile rule: a tail percentile is reported only with at least
// minBeyond samples beyond it.
const minBeyond = 10

// tailPercentile picks the highest of p99.9, p99, p90 and p50 that has
// at least minBeyond of n samples beyond it; ok is false when even the
// median has too few.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quantile is the p-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns NaN for no data.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// pctLabel renders 0.9 as "p90" and 0.999 as "p99.9".
func pctLabel(p float64) string {
	return "p" + trimFloat(p*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	if s[len(s)-2:] == ".0" {
		return s[:len(s)-2]
	}
	return s
}
