package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"aqppp"
	"aqppp/internal/aqp"
	"aqppp/internal/contract"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/ident"
)

// Replayer repeats a traced request's library calls, in the order the
// handler makes them, from the benchmark's own code: each call into a
// layer's public function gets a span under the request's ID. It also
// checks that the replay reproduces what the server answered.
type Replayer struct {
	rec *Recorder
	st  *stack
	// tbl is the table statements compile against (the fleet's schema
	// table on the coordinator).
	tbl *engine.Table

	mu       sync.Mutex
	failures []string
	// Decomposition counters.
	decomposed, phiGuarded, nonPhi int
	candidates                     []float64
	progressiveRounds              []float64
}

func newReplayer(rec *Recorder, st *stack) *Replayer {
	rp := &Replayer{rec: rec, st: st}
	if st.coord != nil {
		rp.tbl = st.coord.SchemaTable()
	} else {
		rp.tbl, _ = st.db.Table("lineitem")
	}
	return rp
}

func (rp *Replayer) failf(format string, args ...any) {
	rp.mu.Lock()
	rp.failures = append(rp.failures, fmt.Sprintf(format, args...))
	rp.mu.Unlock()
}

// Replay repeats out's request. Cache hits replay the plan only: that
// is all the handler did for them.
func (rp *Replayer) Replay(ctx context.Context, out *Outcome) {
	if out.Req == 0 || out.Failed || out.Item.Class == classPrepare {
		return
	}
	root := rp.rec.Open("replay", out.Req, 0)
	defer rp.rec.Close(root)
	req, parent := out.Req, root.ID
	it := out.Item
	prep := rp.st.preps[it.Stmt.Handle]
	var q engine.Query
	rp.rec.Time("sql.compile", req, parent, func() {
		var err error
		q, err = exec.CompileStatement(rp.tbl, "query", it.Stmt.SQL)
		if err != nil {
			rp.failf("replay compile %q: %v", it.Stmt.SQL, err)
		}
	})
	hit := out.Bucket == bucketCacheHit
	switch it.Class {
	case classApprox:
		rp.approx(ctx, req, parent, prep, it, q, out, hit)
	case classBootstrap:
		rp.bootstrap(ctx, req, parent, prep, it, out, hit)
	case classExact:
		rp.exact(ctx, req, parent, it, out, hit)
	case classContract:
		rp.contract(ctx, req, parent, prep, it, q, out, hit)
	case classProgressive:
		rp.progressive(ctx, req, parent, prep, it, out)
	}
}

// plan times one Plan* constructor.
func (rp *Replayer) plan(req, parent uint64, fn func() (*exec.Plan, error)) (*exec.Plan, error) {
	var p *exec.Plan
	var err error
	rp.rec.Time("exec.plan", req, parent, func() { p, err = fn() })
	return p, err
}

func (rp *Replayer) approx(ctx context.Context, req, parent uint64, prep *aqppp.Prepared, it Item, q engine.Query, out *Outcome, hit bool) {
	plan, err := rp.plan(req, parent, func() (*exec.Plan, error) { return prep.PlanQuery(it.Stmt.SQL) })
	if err != nil || hit {
		if err != nil {
			rp.failf("replay plan %q: %v", it.Stmt.SQL, err)
		}
		return
	}
	run := rp.rec.Open("exec.run", req, parent)
	res, err := prep.RunPlan(withSpan(ctx, req, run.ID), plan, aqppp.Budget{})
	rp.rec.Close(run)
	if err != nil {
		rp.failf("replay run %q: %v", it.Stmt.SQL, err)
		return
	}
	if out.Resp != nil && !sameBits(res.Value, out.Resp.Value, res.HalfWidth, *out.Resp.HalfWidth) {
		rp.failf("HTTP approx %v ± %v != RunPlan %v ± %v for %q",
			out.Resp.Value, *out.Resp.HalfWidth, res.Value, res.HalfWidth, it.Stmt.SQL)
	}
	if rp.st.coord == nil {
		rp.answer(req, parent, prep.Processor(), q)
		return
	}
	g := rp.rec.Open("shard.group", req, parent)
	ans, _, err := rp.st.coord.Approx(withSpan(ctx, req, g.ID), it.Stmt.Handle, q)
	rp.rec.Close(g)
	if err != nil {
		rp.failf("replay coordinator approx %q: %v", it.Stmt.SQL, err)
		return
	}
	if !sameBits(ans.Estimate.Value, res.Value, ans.Estimate.HalfWidth, res.HalfWidth) {
		rp.failf("coordinator approx %v != RunPlan %v for %q", ans.Estimate.Value, res.Value, it.Stmt.SQL)
	}
	for _, preps := range rp.st.replicaPreps {
		if proc := preps[it.Stmt.Handle].Processor(); overlaps(proc.Sample.Table, q) {
			rp.answer(req, parent, proc, q)
		}
	}
}

// overlaps reports whether q's range on the shard column can touch
// the slice tbl holds (the coordinator prunes the others).
func overlaps(tbl *engine.Table, q engine.Query) bool {
	c, err := tbl.Column(shardCol)
	if err != nil {
		return true
	}
	lo, hi := c.OrdinalDomain()
	for _, r := range q.Ranges {
		if r.Col == shardCol && (r.Hi < lo || r.Lo > hi) {
			return false
		}
	}
	return true
}

// answer times Processor.Answer and, for SUM/COUNT, its decomposition
// into public steps, which must recompose bit for bit.
func (rp *Replayer) answer(req, parent uint64, proc *core.Processor, q engine.Query) {
	var want core.Answer
	var err error
	rp.rec.Time("core.answer", req, parent, func() { want, err = proc.Answer(q) })
	if err != nil {
		rp.failf("replay Processor.Answer %v: %v", q, err)
		return
	}
	if q.Func != engine.Sum && q.Func != engine.Count {
		return // AVG is timed as a whole
	}
	d := rp.rec.Open("core.decomposed", req, parent)
	got, guarded, err := decompose(rp.rec, req, d.ID, proc, q)
	rp.rec.Close(d)
	if err != nil {
		rp.failf("decomposed answer %v: %v", q, err)
		return
	}
	if !sameBits(got.Estimate.Value, want.Estimate.Value, got.Estimate.HalfWidth, want.Estimate.HalfWidth) ||
		got.Pre.String() != want.Pre.String() || got.Candidates != want.Candidates ||
		math.Float64bits(got.PreValue) != math.Float64bits(want.PreValue) {
		rp.failf("decomposed answer %v ± %v (pre %s) != Processor.Answer %v ± %v (pre %s) for %v",
			got.Estimate.Value, got.Estimate.HalfWidth, got.Pre, want.Estimate.Value, want.Estimate.HalfWidth, want.Pre, q)
	}
	rp.mu.Lock()
	rp.decomposed++
	rp.candidates = append(rp.candidates, float64(got.Candidates))
	if guarded.nonPhi {
		rp.nonPhi++
		if guarded.replaced {
			rp.phiGuarded++
		}
	}
	rp.mu.Unlock()
}

type guardOutcome struct{ nonPhi, replaced bool }

// decompose is Processor.Answer for SUM/COUNT spelled out through the
// public functions it calls: identification on the subsample, the
// diff estimate on the full sample, the φ guard, and the cube lookup.
// A span wraps each call.
func decompose(rec *Recorder, req, parent uint64, p *core.Processor, q engine.Query) (core.Answer, guardOutcome, error) {
	conf := p.Confidence
	if conf == 0 {
		conf = 0.95
	}
	c, cubeAgg := p.Cube, q.Col
	if q.Func == engine.Count {
		cubeAgg = ""
		c = p.CountCube
		if c == nil && p.Cube != nil && p.Cube.Template.Agg == "" {
			c = p.Cube
		}
	}
	if c == nil || c.Template.Agg != cubeAgg {
		return core.Answer{}, guardOutcome{}, fmt.Errorf("no cube for %v", q.Func)
	}
	sub := p.Sub
	if sub == nil {
		sub = p.Sample
	}
	var sel ident.Selection
	var vals []float64
	var err error
	rec.Time("ident.select", req, parent, func() { sel, err = ident.SelectBest(c, q, sub, conf) })
	if err != nil {
		return core.Answer{}, guardOutcome{}, err
	}
	rec.Time("ident.diff", req, parent, func() { vals, err = ident.DiffVector(p.Sample, c, q, sel.Pre) })
	if err != nil {
		return core.Answer{}, guardOutcome{}, err
	}
	var diff aqp.Estimate
	rec.Time("aqp.moments", req, parent, func() { diff = aqp.SumOfValues(p.Sample, vals, conf) })
	pre := sel.Pre
	var g guardOutcome
	if !pre.IsPhi() {
		g.nonPhi = true
		var phiEst aqp.Estimate
		rec.Time("aqp.condvec", req, parent, func() {
			var phiVals []float64
			if phiVals, err = aqp.ConditionVector(p.Sample, q); err == nil {
				phiEst = aqp.SumOfValues(p.Sample, phiVals, conf)
			}
		})
		if err != nil {
			return core.Answer{}, g, err
		}
		if phiEst.HalfWidth < diff.HalfWidth {
			pre, diff, g.replaced = ident.Pre{Phi: true}, phiEst, true
		}
	}
	var preVal float64
	rec.Time("cube.lookup", req, parent, func() { preVal = pre.Value(c) })
	return core.Answer{
		Estimate: aqp.Estimate{
			Value: preVal + diff.Value, HalfWidth: diff.HalfWidth,
			Confidence: conf, SampleRows: diff.SampleRows,
		},
		Pre: pre, PreValue: preVal, Candidates: sel.Considered,
	}, g, nil
}

func (rp *Replayer) bootstrap(ctx context.Context, req, parent uint64, prep *aqppp.Prepared, it Item, out *Outcome, hit bool) {
	plan, err := rp.plan(req, parent, func() (*exec.Plan, error) { return prep.PlanBootstrap(it.Stmt.SQL, resamples) })
	if err != nil || hit {
		if err != nil {
			rp.failf("replay bootstrap plan %q: %v", it.Stmt.SQL, err)
		}
		return
	}
	run := rp.rec.Open("exec.run", req, parent)
	res, err := prep.RunPlan(ctx, plan, aqppp.Budget{})
	rp.rec.Close(run)
	if err != nil {
		rp.failf("replay bootstrap %q: %v", it.Stmt.SQL, err)
		return
	}
	if out.Resp != nil && !sameBits(res.Value, out.Resp.Value, res.HalfWidth, *out.Resp.HalfWidth) {
		rp.failf("HTTP bootstrap %v != RunPlan %v for %q", out.Resp.Value, res.Value, it.Stmt.SQL)
	}
	var ans core.Answer
	rp.rec.Time("core.bootstrap", req, parent, func() {
		ans, err = prep.Processor().AnswerBootstrap(ctx, plan.Query, resamples, plan.Seed, nil)
	})
	if err != nil {
		rp.failf("replay AnswerBootstrap %q: %v", it.Stmt.SQL, err)
		return
	}
	if !sameBits(ans.Estimate.Value, res.Value, ans.Estimate.HalfWidth, res.HalfWidth) {
		rp.failf("AnswerBootstrap %v ± %v != RunPlan %v ± %v for %q",
			ans.Estimate.Value, ans.Estimate.HalfWidth, res.Value, res.HalfWidth, it.Stmt.SQL)
	}
}

func (rp *Replayer) exact(ctx context.Context, req, parent uint64, it Item, out *Outcome, hit bool) {
	db := rp.st.db
	plan, err := rp.plan(req, parent, func() (*exec.Plan, error) { return db.PlanExact(it.Stmt.SQL) })
	if err != nil || hit {
		if err != nil {
			rp.failf("replay exact plan %q: %v", it.Stmt.SQL, err)
		}
		return
	}
	run := rp.rec.Open("exec.run", req, parent)
	res, err := db.RunExactPlan(withSpan(ctx, req, run.ID), plan, aqppp.Budget{})
	rp.rec.Close(run)
	if err != nil {
		rp.failf("replay exact %q: %v", it.Stmt.SQL, err)
		return
	}
	if out.Resp != nil && math.Float64bits(res.Value) != math.Float64bits(out.Resp.Value) {
		rp.failf("HTTP exact %v != RunExactPlan %v for %q", out.Resp.Value, res.Value, it.Stmt.SQL)
	}
	var direct engine.Result
	if rp.st.coord != nil {
		g := rp.rec.Open("shard.group", req, parent)
		direct, err = rp.st.coord.Exact(withSpan(ctx, req, g.ID), plan.Query)
		rp.rec.Close(g)
	} else {
		rp.rec.Time("engine.execute", req, parent, func() { direct, err = plan.Table.ExecuteContext(ctx, plan.Query) })
	}
	if err != nil {
		rp.failf("replay direct exact %q: %v", it.Stmt.SQL, err)
		return
	}
	if math.Float64bits(direct.Value) != math.Float64bits(res.Value) {
		rp.failf("direct exact %v != RunExactPlan %v for %q", direct.Value, res.Value, it.Stmt.SQL)
	}
}

func (rp *Replayer) contract(ctx context.Context, req, parent uint64, prep *aqppp.Prepared, it Item, q engine.Query, out *Outcome, hit bool) {
	c := aqppp.Contract{MaxRelError: it.Rel}
	plan, err := rp.plan(req, parent, func() (*exec.Plan, error) { return prep.PlanContract(it.Stmt.SQL, c) })
	refusedAtPlan := err != nil && aqppp.ErrorKindOf(err) == aqppp.ErrContractInfeasible
	var derr error
	rp.rec.Time("contract.decide", req, parent, func() { _, derr = contract.Decide(prep.Processor(), q, c) })
	if (derr != nil) != (err != nil) {
		rp.failf("contract.Decide (%v) and PlanContract (%v) disagree for %q", derr, err, it.Stmt.SQL)
	}
	if err != nil {
		if !refusedAtPlan {
			rp.failf("replay contract plan %q: %v", it.Stmt.SQL, err)
		} else if out.Bucket != bucketRefused {
			rp.failf("planner refuses %q but HTTP answered %s", it.Stmt.SQL, out.Bucket)
		}
		return
	}
	if hit {
		return
	}
	run := rp.rec.Open("exec.run", req, parent)
	res, err := prep.RunContractPlan(ctx, plan, aqppp.Budget{})
	rp.rec.Close(run)
	switch {
	case err != nil && (aqppp.ErrorKindOf(err) == aqppp.ErrContractInfeasible || aqppp.ErrorKindOf(err) == aqppp.ErrUnsupported):
		if out.Bucket != bucketRefused || out.Refusal != aqppp.ErrorKindOf(err).String() {
			rp.failf("ladder stops with %v for %q but HTTP answered %s %s", err, it.Stmt.SQL, out.Bucket, out.Refusal)
		}
	case err != nil:
		rp.failf("replay contract %q: %v", it.Stmt.SQL, err)
	case out.Resp == nil:
		rp.failf("contract %q answered in replay but refused over HTTP", it.Stmt.SQL)
	case !sameBits(res.Value, out.Resp.Value, res.HalfWidth, *out.Resp.HalfWidth) || res.Strategy != out.Resp.Strategy:
		rp.failf("HTTP contract %v (%s) != RunContractPlan %v (%s) for %q",
			out.Resp.Value, out.Resp.Strategy, res.Value, res.Strategy, it.Stmt.SQL)
	}
	if s := plan.Decision.Strategy; s == contract.StrategyApprox || s == contract.StrategyCube {
		rows := plan.Decision.SampleRows
		if s == contract.StrategyCube {
			rows = prep.Processor().Sample.Size()
		}
		rp.rec.Time("contract.answer_at", req, parent, func() {
			_, err = contract.AnswerAt(prep.Processor(), q, rows, c.ConfidenceOrDefault(), plan.Seed)
		})
		if err != nil {
			rp.failf("replay AnswerAt %q: %v", it.Stmt.SQL, err)
		}
	}
}

func (rp *Replayer) progressive(ctx context.Context, req, parent uint64, prep *aqppp.Prepared, it Item, out *Outcome) {
	stream := rp.rec.Open("progressive.stream", req, parent)
	round := rp.rec.Open("progressive.round", req, stream.ID)
	sum, err := prep.QueryProgressive(ctx, it.Stmt.SQL, aqppp.ProgressiveOptions{
		Contract: &aqppp.Contract{MaxRelError: it.Rel}, Seed: it.Seed, MaxRounds: progressiveRounds,
	}, func(aqppp.ProgressiveRound) error {
		rp.rec.Close(round)
		round = rp.rec.Open("progressive.round", req, stream.ID)
		return nil
	})
	rp.rec.Close(stream)
	if err != nil {
		rp.failf("replay progressive %q: %v", it.Stmt.SQL, err)
		return
	}
	rp.mu.Lock()
	rp.progressiveRounds = append(rp.progressiveRounds, float64(sum.Rounds))
	rp.mu.Unlock()
	if out.Done != nil && (!sameBits(sum.Value, out.Done.Value, sum.HalfWidth, out.Done.HalfWidth) ||
		sum.Reason != out.Done.Reason || sum.Rounds != out.Done.Rounds) {
		rp.failf("SSE done %v ± %v (%s) != QueryProgressive %v ± %v (%s) for %q",
			out.Done.Value, out.Done.HalfWidth, out.Done.Reason, sum.Value, sum.HalfWidth, sum.Reason, it.Stmt.SQL)
	}
}

func sameBits(a, b, c, d float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) && math.Float64bits(c) == math.Float64bits(d)
}
