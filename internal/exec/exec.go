package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/shard"
)

// Budget bounds one query or preparation a priori. The zero Budget is
// unlimited. Budgets are enforced by the Executor, not by callers:
// exceeding any bound yields an Error of kind BudgetExceeded.
type Budget struct {
	// Timeout bounds wall time; the executor derives a deadline context
	// and a query that overruns unwinds at the next cancellation check
	// (one block chunk, climb step, or resample).
	Timeout time.Duration
	// MaxResamples caps bootstrap replicate counts. A plan requesting
	// more is rejected before any work runs.
	MaxResamples int
	// MaxScratchBytes caps the per-query scratch memory the executor
	// hands to the bootstrap path (index + replicate buffers, reused
	// across queries through a sync.Pool).
	MaxScratchBytes int64
}

// Outcome is the unified result of running a Plan.
type Outcome struct {
	// Exact holds the PlanExact result.
	Exact engine.Result
	// Answer holds the scalar answer for approx/bootstrap/multi plans.
	Answer core.Answer
	// Groups holds per-group answers for GROUP BY approx plans.
	Groups []core.GroupAnswer
	// Template is the template index a PlanMulti plan routed to.
	Template int
	// Partial reports a degraded distributed answer: one or more
	// replicas were lost, the opt-in policy tolerated it, and the
	// answer was extrapolated from surviving strata with a widened
	// interval. Partial outcomes must never be cached.
	Partial bool
	// ContractStrategy names the ladder rung that answered a
	// PlanContract plan ("cube", "approx", "bootstrap", "exact");
	// ContractEscalated reports that the planner's first choice missed
	// the bound and a costlier rung answered instead.
	ContractStrategy  string
	ContractEscalated bool
}

// Executor runs Plans. It is safe for concurrent use; scratch buffers
// are pooled across queries.
type Executor struct {
	scratch sync.Pool // *core.BootstrapScratch
}

// New returns an Executor.
func New() *Executor { return &Executor{} }

// Run executes a Plan under the context and budget, returning a
// classified error on any failure. Cancellation granularity is one
// zone-block chunk for exact scans, one resample for bootstrap plans,
// and one group for GROUP BY approx plans.
func (ex *Executor) Run(ctx context.Context, p *Plan, b Budget) (Outcome, error) {
	op := p.Kind.String()
	run, cancel, budgeted := b.bound(ctx)
	defer cancel()
	out, err := ex.dispatch(run, p, b)
	if err != nil {
		return Outcome{}, classify(ctx, run, op, budgeted, err)
	}
	return out, nil
}

// Prepare runs the preprocessing pipeline (sample, hill-climbed
// partition points, cube build) under the context and budget; a
// canceled context unwinds at the next climb step.
func (ex *Executor) Prepare(ctx context.Context, tbl *engine.Table, cfg core.BuildConfig, b Budget) (*core.Processor, core.BuildStats, error) {
	run, cancel, budgeted := b.bound(ctx)
	defer cancel()
	proc, st, err := core.Build(run, tbl, cfg)
	if err != nil {
		return nil, st, classify(ctx, run, "prepare", budgeted, err)
	}
	return proc, st, nil
}

// PrepareSharded builds per-shard processors (sample + BP-cube slice
// per shard, in parallel over GOMAXPROCS workers) under the context and
// budget.
func (ex *Executor) PrepareSharded(ctx context.Context, s *shard.Sharded, cfg core.BuildConfig, b Budget) (*shard.Prepared, error) {
	run, cancel, budgeted := b.bound(ctx)
	defer cancel()
	sp, err := shard.Prepare(run, s, cfg, 0)
	if err != nil {
		return nil, classify(ctx, run, "prepare", budgeted, err)
	}
	return sp, nil
}

// PrepareMulti builds a multi-template manager under the context and
// budget.
func (ex *Executor) PrepareMulti(ctx context.Context, tbl *engine.Table, cfg core.ManagerConfig, b Budget) (*core.Manager, error) {
	run, cancel, budgeted := b.bound(ctx)
	defer cancel()
	mgr, err := core.BuildManager(run, tbl, cfg)
	if err != nil {
		return nil, classify(ctx, run, "prepare", budgeted, err)
	}
	return mgr, nil
}

// bound applies the budget's deadline, reporting whether one was
// imposed. The returned cancel is never nil.
func (b Budget) bound(ctx context.Context) (context.Context, context.CancelFunc, bool) {
	if b.Timeout <= 0 {
		return ctx, func() {}, false
	}
	run, cancel := context.WithTimeout(ctx, b.Timeout)
	return run, cancel, true
}

// dispatch runs one plan kind against its group; where the group's
// strata live is the group's business.
func (ex *Executor) dispatch(ctx context.Context, p *Plan, b Budget) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	switch p.Kind {
	case PlanExact:
		res, err := p.Group.Exact(ctx, p.Query)
		return Outcome{Exact: res}, err

	case PlanApprox:
		if len(p.Query.GroupBy) > 0 {
			groups, deg, err := p.Group.AnswerGroups(ctx, p.Query)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Groups: groups, Partial: deg != nil}, nil
		}
		ans, deg, err := p.Group.Answer(ctx, p.Query)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans, Partial: deg != nil}, nil

	case PlanBootstrap:
		resamples := p.Resamples
		if resamples <= 0 {
			resamples = core.DefaultResamples
		}
		sc, release, err := ex.bootstrapScratch(p.Group, resamples, b)
		if err != nil {
			return Outcome{}, err
		}
		defer release()
		ans, deg, err := p.Group.AnswerBootstrap(ctx, p.Query, resamples, p.Seed, sc)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans, Partial: deg != nil}, nil

	case PlanContract:
		return ex.dispatchContract(ctx, p, b)

	case PlanMulti:
		t := p.Mgr.Route(p.Query)
		ans, err := p.Mgr.Processors[t].Answer(p.Query)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans, Template: t}, nil

	default:
		return Outcome{}, &Error{Kind: Unsupported, Op: "run", Err: fmt.Errorf("unknown plan kind %v", p.Kind)}
	}
}

// bootstrapScratch enforces the budget's bootstrap caps — the
// replicate count, and the scratch footprint of the sample g holds in
// this process — and hands out a pooled scratch; release returns it to
// the pool. Only a resident group resamples into it (the processor
// grows it to its sample); a partitioned group's strata allocate their
// own, and a fleet's resample on the replicas.
func (ex *Executor) bootstrapScratch(g *shard.Group, resamples int, b Budget) (*core.BootstrapScratch, func(), error) {
	if b.MaxResamples > 0 && resamples > b.MaxResamples {
		return nil, nil, &Error{Kind: BudgetExceeded, Op: "bootstrap",
			Err: fmt.Errorf("%d resamples exceed the budget's cap of %d", resamples, b.MaxResamples)}
	}
	need := core.BootstrapScratchBytes(g.SampleRows())
	if b.MaxScratchBytes > 0 && need > b.MaxScratchBytes {
		return nil, nil, &Error{Kind: BudgetExceeded, Op: "bootstrap",
			Err: fmt.Errorf("bootstrap needs %d scratch bytes, budget caps at %d", need, b.MaxScratchBytes)}
	}
	sc, _ := ex.scratch.Get().(*core.BootstrapScratch)
	if sc == nil {
		sc = &core.BootstrapScratch{}
	}
	return sc, func() { ex.scratch.Put(sc) }, nil
}
