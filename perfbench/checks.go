package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/server"
	"aqppp/internal/stats"
)

// truthFor answers every statement exactly on the full table: the
// oracle the accuracy metrics and the exact checks compare against.
func truthFor(ctx context.Context, tbl *engine.Table, stmts []Stmt) ([]engine.Result, error) {
	out := make([]engine.Result, len(stmts))
	errs := make([]error, len(stmts))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(stmts); j += workers {
				q, err := exec.CompileStatement(tbl, "exact", stmts[j].SQL)
				if err == nil {
					out[j], err = tbl.ExecuteContext(ctx, q)
				}
				errs[j] = err
			}
		}(w)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("truth for %q: %w", stmts[j].SQL, err)
		}
	}
	return out, nil
}

// checkReport collects the answer checks run outside the timed phase.
type checkReport struct {
	attempted, failed int
	failures          []string
	relHW             []float64
	covered           int
}

func (r *checkReport) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkOutcome counts a request made by a check.
func (r *checkReport) checkOutcome(o Outcome) bool {
	r.check(!o.Failed, "%s %q: %s", o.Item.Class, o.Item.Stmt.SQL, o.Why)
	return !o.Failed
}

// accuracyChecks runs the fixed accuracy set through the front server
// and checks every answer path the workload serves:
//   - HTTP approx equals Prepared.RunPlan bit for bit, and the
//     interval width and coverage against the exact truth are recorded;
//   - the SUM/COUNT decomposition equals Processor.Answer bit for bit;
//   - HTTP exact equals Table.ExecuteContext bit for bit (the fleet:
//     integer aggregates bit for bit, float ones to 1e-12);
//   - analyst-mix only: contract answers reported as met satisfy
//     Contract.Met, progressive streams never widen and end with a
//     documented reason, and bootstrap answers equal RunPlan.
func accuracyChecks(ctx context.Context, wl string, st *stack, c *Client, acc []Stmt, truth []engine.Result) *checkReport {
	rep := &checkReport{}
	fleet := st.coord != nil
	rp := newReplayer(nil, st)
	for j, s := range acc {
		o := c.Do(ctx, Item{Class: classApprox, Stmt: s, Pool: -1})
		if !rep.checkOutcome(o) {
			continue
		}
		prep := st.preps[s.Handle]
		res, err := prep.Query(s.SQL)
		if err != nil {
			rep.check(false, "library approx %q: %v", s.SQL, err)
			continue
		}
		hw := *o.Resp.HalfWidth
		rep.check(sameBits(res.Value, o.Resp.Value, res.HalfWidth, hw),
			"HTTP approx %v ± %v != RunPlan %v ± %v for %q", o.Resp.Value, hw, res.Value, res.HalfWidth, s.SQL)
		t := truth[j].Value
		rep.relHW = append(rep.relHW, hw/math.Abs(t))
		// A zero-width answer (the cube covers the query) sums the same
		// rows in another order than the scan; allow that roundoff.
		if math.Abs(o.Resp.Value-t) <= hw+1e-9*math.Abs(t) {
			rep.covered++
		}
		q, err := exec.CompileStatement(rp.tbl, "query", s.SQL)
		if err != nil {
			rep.check(false, "compile %q: %v", s.SQL, err)
			continue
		}
		if fleet {
			for _, preps := range st.replicaPreps {
				if proc := preps[s.Handle].Processor(); overlaps(proc.Sample.Table, q) {
					rp.answer(0, 0, proc, q)
				}
			}
		} else {
			rp.answer(0, 0, prep.Processor(), q)
		}
	}
	for _, f := range rp.failures {
		rep.check(false, "%s", f)
	}
	if rp.decomposed == 0 {
		rep.check(false, "no SUM/COUNT statement was decomposed")
	}
	for j, s := range acc[:40] {
		o := c.Do(ctx, Item{Class: classExact, Stmt: s, Pool: -1})
		if !rep.checkOutcome(o) {
			continue
		}
		got, want := o.Resp.Value, truth[j].Value
		if fleet && s.Agg != "COUNT" {
			rep.check(stats.ApproxEqual(got, want, 1e-12), "fleet exact %v vs truth %v for %q", got, want, s.SQL)
		} else {
			rep.check(stats.ExactEqual(got, want), "exact %v != truth %v for %q", got, want, s.SQL)
		}
	}
	if wl != wlAnalystMix {
		return rep
	}
	for _, s := range acc[:40] {
		for _, rel := range []float64{0.01, 0.05} {
			rep.checkOutcome(c.Do(ctx, Item{Class: classContract, Stmt: s, Rel: rel, Pool: -1}))
		}
	}
	n := 0
	for j, s := range acc {
		if s.Agg == "AVG" || n == 10 {
			continue
		}
		n++
		rep.checkOutcome(c.Do(ctx, Item{Class: classProgressive, Stmt: s, Rel: 0.05, Seed: uint64(j), Pool: -1}))
		if n > 4 {
			continue
		}
		o := c.Do(ctx, Item{Class: classBootstrap, Stmt: s, Pool: -1})
		if !rep.checkOutcome(o) {
			continue
		}
		res, err := st.preps[s.Handle].QueryBootstrap(s.SQL, resamples)
		rep.check(err == nil && sameBits(res.Value, o.Resp.Value, res.HalfWidth, *o.Resp.HalfWidth),
			"HTTP bootstrap %v != library %v (%v) for %q", o.Resp.Value, res.Value, err, s.SQL)
	}
	return rep
}

// accountingCheck compares each server's /statusz with what was sent:
// per endpoint the request counts agree, and every gated request was
// served by the gate, shed, answered from the cache, or refused at
// plan time before reaching the gate.
//
// A progressive stream's client can read the final event before the
// server's handler has returned and counted the request, so the check
// is retried briefly until the servers are quiet.
func accountingCheck(hc *http.Client, st *stack, sentTo map[string]int) (statusz, []string) {
	var sz statusz
	var fails []string
	for attempt := 0; attempt < 50; attempt++ {
		if sz, fails = scrapeAndAccount(hc, st, sentTo); len(fails) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return sz, fails
}

func scrapeAndAccount(hc *http.Client, st *stack, sentTo map[string]int) (statusz, []string) {
	var fails []string
	front, err := st.front.statusz(hc)
	if err != nil {
		return statusz{}, []string{fmt.Sprintf("front statusz: %v", err)}
	}
	out := statusz{front: front}
	gated := 0
	eps := make([]string, 0, len(sentTo))
	for ep := range sentTo {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		n := sentTo[ep]
		if !strings.HasPrefix(ep, "/") {
			continue
		}
		if got := front.Endpoints[ep].Requests; got != int64(n) {
			fails = append(fails, fmt.Sprintf("statusz %s: %d requests, client sent %d", ep, got, n))
		}
		if ep != "/v1/prepared" {
			gated += n
		}
	}
	var hits int64
	if front.Cache != nil {
		hits = front.Cache.Hits
	}
	if acc := front.ServedTotal + front.ShedTotal + front.QuotaShedTotal + hits + int64(sentTo[planRefused]); acc != int64(gated) {
		fails = append(fails, fmt.Sprintf("gate served %d + shed %d + cache hits %d + refused at plan %d = %d, client sent %d gated requests",
			front.ServedTotal, front.ShedTotal+front.QuotaShedTotal, hits, sentTo[planRefused], acc, gated))
	}
	for i, n := range st.replicas {
		rs, err := n.statusz(hc)
		if err != nil {
			fails = append(fails, fmt.Sprintf("replica %d statusz: %v", i, err))
			continue
		}
		if p := rs.Endpoints["/v1/partial"].Requests; p != rs.ServedTotal+rs.ShedTotal {
			fails = append(fails, fmt.Sprintf("replica %d: %d partials, gate served %d + shed %d", i, p, rs.ServedTotal, rs.ShedTotal))
		}
	}
	return out, fails
}

// planRefused keys, in the sent counts, the contract requests refused
// at plan time (they never reach the admission gate).
const planRefused = "#refused-at-plan"

// statusz holds the front server's end-of-run /statusz scrape.
type statusz struct {
	front server.StatuszResponse
}
