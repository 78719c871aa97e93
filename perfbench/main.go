// Command perfbench is the repository's end-to-end benchmark. It
// starts real server.Server instances in-process on loopback
// listeners, drives them with a closed loop of two clients from a
// seeded statement stream, checks the answers, and prints the
// end-to-end metrics (--trace 0) or, from a second traced run of the
// same stream, the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object; the lines before it are the
// human-readable report.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it inside the checkout:
//
//	bash perfbench/run.sh --workload drilldown --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aqppp/internal/engine"
)

const (
	// clients is the closed loop's size: one per core of the 2-core
	// machine the benchmark was sized on (see ENVIRONMENT.md).
	clients = 2
	// setupRepeats set-ups run per invocation; setup_s is their median.
	setupRepeats = 5
	warmup       = time.Second
)

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same statement stream")
	seconds := flag.Int("seconds", 20, "measured seconds (split evenly between the untraced and traced phases with --trace 1)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b, err := newBench(*wl, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := b.run(context.Background(), time.Duration(*seconds)*time.Second, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

type bench struct {
	wl    string
	seed  uint64
	tbl   *engine.Table
	hc    *http.Client
	tr    *tracer
	setup func(*engine.Table, *tracer, *http.Client) (*stack, time.Duration, error)

	attempted, failed int
	failures          []string
}

func newBench(wl string, seed uint64) (*bench, error) {
	b := &bench{wl: wl, seed: seed, hc: newHTTPClient(), tr: &tracer{}}
	switch wl {
	case wlDrilldown, wlAnalystMix:
		b.setup = setupSingle
	case wlFleet:
		b.setup = setupFleet
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", wl, strings.Join(workloadNames, ", "))
	}
	return b, nil
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) run(ctx context.Context, measure time.Duration, traced bool, traceOut string) (*Result, error) {
	fmt.Printf("perfbench: workload %s seed %d | nproc %d GOMAXPROCS %d %s | %d rows, data seed %d, prepare seed %d, sample rate %v, k %d | closed loop, %d clients\n",
		b.wl, b.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		tableRows, dataSeed, prepSeed, sampleRate, cellBudget, clients)
	b.tbl = makeTable()

	// Set-up, repeated; the last stack serves the run.
	var setups []float64
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		st, d, err = b.setup(b.tbl, b.tr, b.hc)
		if err != nil {
			if st != nil {
				_ = st.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if st != nil {
			_ = st.close()
		}
	}()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	g, err := newGen(b.tbl)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(b.wl, b.seed, g)
	if err != nil {
		return nil, err
	}
	acc := accuracySet(g)
	truth, err := truthFor(ctx, b.tbl, acc)
	if err != nil {
		return nil, err
	}
	c := &Client{hc: b.hc, base: st.front.url, sent: &sent{n: map[string]int{}}, hs: newHandleSet()}
	rep := accuracyChecks(ctx, b.wl, st, c, acc, truth)
	b.attempted += rep.attempted
	b.failed += rep.failed
	b.failures = append(b.failures, rep.failures...)

	runPhase(ctx, w, "warm", c, nil, warmup)
	phase := measure
	if traced {
		phase = measure / 2
	}
	rt0 := readRuntime()
	outs, elapsed := runPhase(ctx, w, "run", c, nil, phase)
	rt1 := readRuntime()
	for _, f := range b.countOutcomes(outs) {
		b.fail("%s", f)
	}
	sz, fails := accountingCheck(b.hc, st, c.sent.snapshot())
	for _, f := range fails {
		b.fail("accounting: %s", f)
	}
	b.attempted++ // the accounting check
	rs := summarize(outs, elapsed)
	rs.print(b.wl)
	printStatusz(sz)

	res := &Result{Metrics: map[string]Metric{}}
	if !traced {
		res.Metrics = map[string]Metric{
			"setup_s":                  {median(setups), "s"},
			"setup_heap_mb":            {heapMB, "MB"},
			"throughput_qps":           {rs.qps, "1/s"},
			"approx_p50_ms":            {rs.pct(bucketApprox, 0.5), "ms"},
			"approx_p90_ms":            {rs.pct(bucketApprox, 0.9), "ms"},
			"approx_rel_halfwidth_p50": {median(rep.relHW), "ratio"},
			"approx_coverage":          {float64(rep.covered) / float64(len(acc)), "ratio"},
		}
		if n := rs.count(bucketApprox); n < 10*minBeyond {
			b.fail("approx_p90_ms rests on %d samples; it needs %d", n, 10*minBeyond)
		}
		fmt.Printf("setup_s runs %v | setup_heap_mb %.1f | approx_rel_halfwidth_p50 %.4g over %d statements | approx_coverage %d/%d\n",
			setups, heapMB, median(rep.relHW), len(rep.relHW), rep.covered, len(acc))
	} else {
		if err := st.close(); err != nil {
			return nil, err
		}
		st = nil
		tm, err := b.tracedRun(ctx, w, phase, traceOut, rs, sz, rt0, rt1)
		if err != nil {
			return nil, err
		}
		res.Metrics = tm
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	for i, f := range b.failures {
		if i == 20 {
			fmt.Printf("FAIL ... and %d more\n", len(b.failures)-20)
			break
		}
		fmt.Println("FAIL", f)
	}
	return res, nil
}

// countOutcomes adds the timed loop's requests to the totals and
// returns the failures.
func (b *bench) countOutcomes(outs []Outcome) []string {
	var fails []string
	for _, o := range outs {
		b.attempted++
		if o.Failed {
			fails = append(fails, fmt.Sprintf("%s %q: %s", o.Item.Class, o.Item.Stmt.SQL, o.Why))
		}
	}
	return fails
}

// runPhase drives the closed loop for d: each client takes the next
// stream item, sends it, waits for the answer and (traced) replays it.
func runPhase(ctx context.Context, w *Workload, salt string, c *Client, rp *Replayer, d time.Duration) ([]Outcome, time.Duration) {
	var next atomic.Int64
	per := make([][]Outcome, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				it := w.Item(salt, int(next.Add(1)-1))
				o := c.Do(ctx, it)
				if rp != nil {
					rp.Replay(ctx, &o)
				}
				per[k] = append(per[k], o)
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []Outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// runStats summarizes one phase's outcomes.
type runStats struct {
	n, failed int
	elapsed   time.Duration
	qps       float64
	lat       map[string][]float64 // ms by bucket, successful requests only
	sels      []float64
	poolHits  int
	pool      int
	met       int
	contracts int
	strategy  map[string]int
	escalated int
	refused   map[string]int
	// negativeHW counts answers with a half-width below zero by no more
	// than float resolution (see Client.checkJSON).
	negativeHW int
}

func summarize(outs []Outcome, elapsed time.Duration) *runStats {
	rs := &runStats{n: len(outs), elapsed: elapsed, lat: map[string][]float64{},
		strategy: map[string]int{}, refused: map[string]int{}}
	ok := 0
	for _, o := range outs {
		if o.Item.Class != classPrepare {
			rs.sels = append(rs.sels, o.Item.Stmt.Sel)
		}
		if o.Item.Class == classContract {
			rs.contracts++
			if o.Met {
				rs.met++
			}
			if o.Bucket == bucketRefused {
				rs.refused[o.Refusal]++
			}
			if o.Resp != nil {
				rs.strategy[o.Resp.Strategy]++
				if o.Resp.Escalated {
					rs.escalated++
				}
			}
		}
		if o.Failed {
			rs.failed++
			continue
		}
		if o.NegativeHW {
			rs.negativeHW++
		}
		ok++
		if o.Item.Pool >= 0 {
			rs.pool++
			if o.Bucket == bucketCacheHit {
				rs.poolHits++
			}
		}
		rs.lat[o.Bucket] = append(rs.lat[o.Bucket], float64(o.Lat)/float64(time.Millisecond))
	}
	rs.qps = float64(ok) / elapsed.Seconds()
	return rs
}

func (rs *runStats) count(bucket string) int { return len(rs.lat[bucket]) }

func (rs *runStats) pct(bucket string, p float64) float64 {
	return quantile(append([]float64(nil), rs.lat[bucket]...), p)
}

// wallShare is each bucket's share of the clients' summed latency.
func (rs *runStats) wallShare(bucket string) float64 {
	total, mine := 0.0, 0.0
	for b, xs := range rs.lat {
		for _, x := range xs {
			total += x
			if b == bucket {
				mine += x
			}
		}
	}
	if total == 0 {
		return 0
	}
	return mine / total
}

// print writes every end-to-end figure the workload produces, each
// percentile with its sample count, and "-" for classes it does not
// send.
func (rs *runStats) print(wl string) {
	fmt.Printf("%s: %d requests in %.2fs, %d failed (failed_ratio %.4g), throughput_qps %.1f\n",
		wl, rs.n, rs.elapsed.Seconds(), rs.failed, float64(rs.failed)/math.Max(1, float64(rs.n)), rs.qps)
	for _, b := range bucketNames {
		n := rs.count(b)
		if n == 0 {
			fmt.Printf("  %-12s -\n", b)
			continue
		}
		line := fmt.Sprintf("  %-12s n=%-6d share %.3f  p50 %.4g ms", b, n, rs.wallShare(b), rs.pct(b, 0.5))
		if p, ok := tailPercentile(n); ok && p > 0.5 {
			line += fmt.Sprintf("  %s %.4g ms", pctLabel(p), rs.pct(b, p))
		}
		fmt.Println(line)
	}
	if rs.contracts > 0 {
		fmt.Printf("  contract_met_ratio %.4g (%d/%d; refused 422 %v, %d escalated, rungs %v)\n",
			float64(rs.met)/float64(rs.contracts), rs.met, rs.contracts, rs.refused, rs.escalated, rs.strategy)
	}
	if rs.negativeHW > 0 {
		fmt.Printf("  DEFECT: %d answers carried a half-width below zero within float resolution\n", rs.negativeHW)
	}
	if rs.pool > 0 {
		fmt.Printf("  repeated-pool cache hit share %.3f (%d/%d)\n", float64(rs.poolHits)/float64(rs.pool), rs.poolHits, rs.pool)
	}
	if len(rs.sels) > 0 {
		s := append([]float64(nil), rs.sels...)
		fmt.Printf("  achieved selectivity quartiles %.4g / %.4g / %.4g over %d statements\n",
			quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), len(s))
	}
}

func printStatusz(sz statusz) {
	f := sz.front
	line := fmt.Sprintf("statusz: served %d shed %d queued %d quota-shed %d", f.ServedTotal, f.ShedTotal, f.QueuedTotal, f.QuotaShedTotal)
	if f.Cache != nil {
		line += fmt.Sprintf(" | cache hits %d misses %d invalidations %d evictions %d", f.Cache.Hits, f.Cache.Misses, f.Cache.Invalidations, f.Cache.Evictions)
	}
	if f.Contract != nil {
		line += fmt.Sprintf(" | contract met %d infeasible %d escalated %d progressive rounds %d",
			f.Contract.MetTotal, f.Contract.InfeasibleTotal, f.Contract.EscalatedTotal, f.Contract.ProgressiveRounds)
	}
	if f.Dist != nil {
		line += fmt.Sprintf(" | dist pruned %d", f.Dist.Pruned)
		for _, r := range f.Dist.Replicas {
			line += fmt.Sprintf(" | replica %d requests %d retries %d failures %d", r.Index, r.Requests, r.Retries, r.Failures)
		}
	}
	fmt.Println(line)
}

// rtStats is a runtime reading for per-request allocation and GC cost.
type rtStats struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	r := rtStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.cpu = s[1].Value.Float64()
	}
	return r
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
