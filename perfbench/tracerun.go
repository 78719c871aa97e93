package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// tracedRun sets the system up again with span recording on, replays
// the same stream for phase, writes the spans, and derives the
// per-layer metrics. untraced, sz and rt0/rt1 come from the untraced
// phase that ran just before on a fresh stack of its own.
func (b *bench) tracedRun(ctx context.Context, w *Workload, phase time.Duration, traceOut string,
	untraced *runStats, sz statusz, rt0, rt1 rtStats) (map[string]Metric, error) {
	rec := newRecorder()
	b.tr.rec.Store(rec)
	st, _, err := b.setup(b.tbl, b.tr, b.hc)
	b.tr.rec.Store(nil)
	if err != nil {
		if st != nil {
			_ = st.close()
		}
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer func() { _ = st.close() }()
	c := &Client{hc: b.hc, base: st.front.url, sent: &sent{n: map[string]int{}}, hs: newHandleSet()}
	runPhase(ctx, w, "warm", c, nil, warmup)
	c.rec = rec
	rp := newReplayer(rec, st)
	b.tr.rec.Store(rec)
	outs, elapsed := runPhase(ctx, w, "run", c, rp, phase)
	b.tr.rec.Store(nil)
	for _, f := range b.countOutcomes(outs) {
		b.fail("traced: %s", f)
	}
	b.attempted += rp.decomposed
	for _, f := range rp.failures {
		b.fail("replay: %s", f)
	}
	_, fails := accountingCheck(b.hc, st, c.sent.snapshot())
	b.attempted++
	for _, f := range fails {
		b.fail("traced accounting: %s", f)
	}
	path := filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.jsonl", b.wl, b.seed))
	if err := rec.Write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	traced := summarize(outs, elapsed)
	fmt.Printf("traced phase: %d requests, %d spans written to %s\n", traced.n, len(rec.Spans()), path)

	lm := newLayerMetrics(rec.Spans())
	m := map[string]Metric{}
	put := func(name string, v float64, unit string) { m[name] = Metric{v, unit} }
	put("http.transport_ms", lm.transportMS(), "ms")
	put("server.handler_ms", lm.medianMS(isHandler), "ms")
	serverSelf, replay := lm.selfAndReplay()
	put("server.self_ms", serverSelf, "ms")
	put("trace.replay_ratio", replay, "ratio")
	put("sql.compile_us", lm.medianUS(named("sql.compile")), "us")
	put("exec.plan_us", lm.medianUS(named("exec.plan")), "us")
	put("exec.run_ms", lm.medianMS(named("exec.run")), "ms")
	put("ident.select_us", lm.medianUS(named("ident.select")), "us")
	put("ident.diff_us", lm.medianUS(named("ident.diff")), "us")
	put("aqp.moments_us", lm.medianUS(named("aqp.moments")), "us")
	put("aqp.condvec_us", lm.medianUS(named("aqp.condvec")), "us")
	put("cube.lookup_us", lm.medianUS(named("cube.lookup")), "us")
	put("core.answer_us", lm.medianUS(named("core.answer")), "us")
	put("prepare.build_ms", lm.medianMS(func(s Span) bool { return strings.HasPrefix(s.Name, "prepare.build ") }), "ms")
	put("ident.candidates", median(rp.candidates), "count")
	put("core.phi_guard_ratio", ratio(rp.phiGuarded, rp.nonPhi), "ratio")
	put("progressive.rounds", zeroNaN(median(rp.progressiveRounds)), "count")
	put("core.negative_halfwidths", float64(untraced.negativeHW+traced.negativeHW), "count")

	// Layers only some workloads reach are reported as their share of
	// the front handlers' time, which is 0 where the layer is idle.
	handlerTotal := lm.total(isHandler)
	share := func(d time.Duration) float64 { return ratio64(float64(d), float64(handlerTotal)) }
	put("engine.execute_share", share(lm.total(named("engine.execute"))), "ratio")
	put("contract.decide_share", share(lm.total(named("contract.decide"))), "ratio")
	put("contract.answer_at_share", share(lm.total(named("contract.answer_at"))), "ratio")
	put("core.bootstrap_share", share(lm.total(named("core.bootstrap"))), "ratio")
	put("progressive.round_share", share(lm.total(named("progressive.round"))), "ratio")
	put("shard.group_share", share(lm.total(named("shard.group"))), "ratio")
	replicaSpans, wire := lm.dist()
	put("dist.replica_share", share(sumDur(replicaSpans)), "ratio")
	put("dist.wire_share", share(sumDur(wire)), "ratio")

	f := sz.front
	var hits, misses, inval int64
	if f.Cache != nil {
		hits, misses, inval = f.Cache.Hits, f.Cache.Misses, f.Cache.Invalidations
	}
	put("server.cache_hit_ratio", ratio64(float64(hits), float64(hits+misses)), "ratio")
	put("server.cache_invalidations", float64(inval), "count")
	put("server.gate_queued", float64(f.QueuedTotal), "count")
	put("server.shed", float64(f.ShedTotal+f.QuotaShedTotal), "count")
	var pruned, partials, retries, failures uint64
	if f.Dist != nil {
		pruned = f.Dist.Pruned
		for _, r := range f.Dist.Replicas {
			partials += r.Requests
			retries += r.Retries
			failures += r.Failures
		}
	}
	put("shard.pruned_ratio", ratio64(float64(pruned), float64(pruned+partials)), "ratio")
	put("dist.retries", float64(retries), "count")
	put("dist.failures", float64(failures), "count")

	refused := untraced.refused["contract-infeasible"] + untraced.refused["unsupported"]
	answered := untraced.contracts - refused
	for _, s := range []string{"cube", "approx", "bootstrap", "exact"} {
		put("contract.rung_share."+s, ratio(untraced.strategy[s], answered), "ratio")
	}
	put("contract.escalated_ratio", ratio(untraced.escalated, answered), "ratio")
	put("contract.infeasible_ratio", ratio(untraced.refused["contract-infeasible"], untraced.contracts), "ratio")
	put("contract.unsupported_ratio", ratio(untraced.refused["unsupported"], untraced.contracts), "ratio")

	var bytes int64
	for _, ps := range st.prepStats {
		bytes += ps.SampleBytes + ps.CubeBytes
	}
	put("prepare.bytes", float64(bytes), "bytes")
	n := float64(max(untraced.n, 1))
	put("go.allocs_per_req", float64(rt1.mallocs-rt0.mallocs)/n, "count")
	put("go.bytes_per_req", float64(rt1.bytes-rt0.bytes)/n, "bytes")
	put("go.gc_cpu_ratio", ratio64(rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu), "ratio")
	put("trace.overhead_ratio", ratio64(traced.qps, untraced.qps), "ratio")
	for _, bk := range bucketNames {
		put("mix."+bk+"_share", untraced.wallShare(bk), "ratio")
	}

	// The absolute times behind the shares, for a reader of the report.
	for _, e := range []struct {
		label string
		ds    []time.Duration
	}{
		{"engine.execute_ms", lm.durs(named("engine.execute"))},
		{"contract.decide_ms", lm.durs(named("contract.decide"))},
		{"contract.answer_at_ms", lm.durs(named("contract.answer_at"))},
		{"core.bootstrap_ms", lm.durs(named("core.bootstrap"))},
		{"progressive.round_ms", lm.durs(named("progressive.round"))},
		{"shard.group_ms", lm.durs(named("shard.group"))},
		{"dist.replica_ms", replicaSpans},
		{"dist.wire_ms", wire},
	} {
		if len(e.ds) > 0 {
			fmt.Printf("  %-24s p50 %.4g ms (n=%d)\n", e.label, medianDur(e.ds), len(e.ds))
		}
	}
	self := map[string][]time.Duration{}
	for id, d := range selfTimes(lm.spans) {
		name := lm.byID[id].Name
		self[name] = append(self[name], d)
	}
	for _, name := range sortedKeys(self) {
		fmt.Printf("  self %-28s p50 %.4g ms (n=%d)\n", name, medianDur(self[name]), len(self[name]))
	}
	byEP := lm.byEndpoint()
	for _, ep := range sortedKeys(byEP) {
		ds := byEP[ep]
		fmt.Printf("  server.handler_ms %-16s p50 %.4g ms (n=%d)\n", ep, medianDur(ds), len(ds))
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-30s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

// layerMetrics indexes one traced phase's spans.
type layerMetrics struct {
	spans []Span
	byID  map[uint64]Span
}

func newLayerMetrics(spans []Span) *layerMetrics {
	lm := &layerMetrics{spans: spans, byID: make(map[uint64]Span, len(spans))}
	for _, s := range spans {
		lm.byID[s.ID] = s
	}
	return lm
}

func named(name string) func(Span) bool { return func(s Span) bool { return s.Name == name } }

func isHandler(s Span) bool { return strings.HasPrefix(s.Name, "handler ") }

func (lm *layerMetrics) durs(keep func(Span) bool) []time.Duration {
	var out []time.Duration
	for _, s := range lm.spans {
		if keep(s) {
			out = append(out, s.Dur())
		}
	}
	return out
}

func (lm *layerMetrics) total(keep func(Span) bool) time.Duration { return sumDur(lm.durs(keep)) }

func (lm *layerMetrics) medianMS(keep func(Span) bool) float64 {
	return zeroNaN(medianDur(lm.durs(keep)))
}

func (lm *layerMetrics) medianUS(keep func(Span) bool) float64 { return lm.medianMS(keep) * 1000 }

// transportMS is the median of client round trip minus handler span.
func (lm *layerMetrics) transportMS() float64 {
	var ds []time.Duration
	for _, s := range lm.spans {
		if p, ok := lm.byID[s.Parent]; ok && isHandler(s) && strings.HasPrefix(p.Name, "client ") {
			ds = append(ds, p.Dur()-s.Dur())
		}
	}
	return zeroNaN(medianDur(ds))
}

// selfAndReplay pairs each request's handler span with its replayed
// plan+run: the server's self time is the difference (median), and
// the replay ratio is replayed time over handler time in total.
func (lm *layerMetrics) selfAndReplay() (selfMS, replayRatio float64) {
	handler := map[uint64]time.Duration{}
	replayed := map[uint64]time.Duration{}
	ran := map[uint64]bool{}
	for _, s := range lm.spans {
		switch {
		case isHandler(s):
			handler[s.Req] = s.Dur()
		case s.Name == "exec.plan" || s.Name == "exec.run":
			replayed[s.Req] += s.Dur()
			if s.Name == "exec.run" {
				ran[s.Req] = true
			}
		}
	}
	var self []time.Duration
	var sumH, sumR time.Duration
	for req := range ran {
		h, ok := handler[req]
		if !ok {
			continue
		}
		self = append(self, h-replayed[req])
		sumH += h
		sumR += replayed[req]
	}
	return zeroNaN(medianDur(self)), ratio64(float64(sumR), float64(sumH))
}

// dist returns the replica handler spans under the front's own
// requests, and per replayed coordinator call (shard.group) the part
// not covered by its slowest replica: the wire and codec share.
func (lm *layerMetrics) dist() (replica, wire []time.Duration) {
	slowest := map[uint64]time.Duration{}
	for _, s := range lm.spans {
		if !strings.HasPrefix(s.Name, "replica ") {
			continue
		}
		call, ok := lm.byID[s.Parent]
		if !ok {
			continue
		}
		caller := lm.byID[call.Parent]
		switch {
		case isHandler(caller):
			replica = append(replica, s.Dur())
		case caller.Name == "shard.group":
			slowest[caller.ID] = max(slowest[caller.ID], s.Dur())
		}
	}
	for _, s := range lm.spans {
		if s.Name == "shard.group" {
			wire = append(wire, s.Dur()-slowest[s.ID])
		}
	}
	return replica, wire
}

func (lm *layerMetrics) byEndpoint() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range lm.spans {
		if isHandler(s) {
			ep := strings.TrimPrefix(s.Name, "handler ")
			out[ep] = append(out[ep], s.Dur())
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// medianDur is the median in milliseconds (NaN for none).
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(xs, 0.5)
}

func ratio(a, b int) float64 { return ratio64(float64(a), float64(b)) }

func ratio64(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN reports "no samples" as 0 so the JSON stays numeric.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
