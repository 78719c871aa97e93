package core

import (
	"context"
	"math"
	"testing"
	"time"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// --- Maintainer (Appendix C: data updates) ---

func TestMaintainerKeepsCubeExact(t *testing.T) {
	tbl := testTable(20000, 30)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.1, CellBudget: 15, Seed: 31, WithCountCube: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(tbl, p, 33)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(35)
	for i := 0; i < 500; i++ {
		c1 := int64(r.Intn(100) + 1)
		if err := m.Insert(c1, int64(r.Intn(40)+1), 100+0.5*float64(c1)+15*r.NormFloat64(), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if m.Inserted() != 500 {
		t.Errorf("Inserted = %d", m.Inserted())
	}
	// The cube's total must equal the grown table's total exactly.
	truth, _ := tbl.Execute(engine.Query{Func: engine.Sum, Col: "a"})
	if got := p.Cube.TotalSum(); math.Abs(got-truth.Value) > 1e-6*math.Abs(truth.Value) {
		t.Errorf("cube total %v != table total %v after inserts", got, truth.Value)
	}
	if got := p.CountCube.TotalSum(); got != 20500 {
		t.Errorf("count cube total = %v, want 20500", got)
	}
	// Answers over the grown table remain accurate.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 10, Hi: 80}}}
	qt, _ := tbl.Execute(q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ans.Estimate.Value-qt.Value) / qt.Value; rel > 0.1 {
		t.Errorf("post-insert answer off by %v", rel)
	}
	// The sample grew roughly at the standing rate.
	if p.Sample.SourceRows != 20500 {
		t.Errorf("SourceRows = %d", p.Sample.SourceRows)
	}
	grown := p.Sample.Size() - 2000
	if grown < 20 || grown > 90 {
		t.Errorf("sample grew by %d rows for 500 inserts at 10%%", grown)
	}
	for _, w := range p.Sample.InvP {
		if w != 20500 {
			t.Fatalf("stale InvP %v", w)
		}
	}
}

func TestMaintainerDomainGrowth(t *testing.T) {
	tbl := testTable(5000, 36)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.1, CellBudget: 8, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(tbl, p, 38)
	if err != nil {
		t.Fatal(err)
	}
	// c1 was generated in [1, 100]; insert far beyond the domain.
	if err := m.Insert(int64(5000), int64(1), 123.0, "x"); err != nil {
		t.Fatal(err)
	}
	pts := p.Cube.Points[0]
	if pts[len(pts)-1] != 5000 {
		t.Errorf("last partition point = %v, want extended to 5000", pts[len(pts)-1])
	}
	truth, _ := tbl.Execute(engine.Query{Func: engine.Sum, Col: "a"})
	if got := p.Cube.TotalSum(); math.Abs(got-truth.Value) > 1e-6 {
		t.Errorf("cube total %v != %v after domain growth", got, truth.Value)
	}
}

func TestMaintainerRejections(t *testing.T) {
	tbl := testTable(2000, 39)
	// Cube over the string dimension g.
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"g"}},
		SampleRate: 0.2, CellBudget: 4, Seed: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(tbl, p, 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(int64(1), int64(1), 1.0, "brand-new-value"); err == nil {
		t.Error("unseen string dimension value accepted")
	}
	// Known value passes.
	if err := m.Insert(int64(1), int64(1), 1.0, "x"); err != nil {
		t.Fatal(err)
	}
	// No cube → no maintainer.
	s, _ := sample.NewUniform(tbl, 0.1, 42)
	if _, err := NewMaintainer(tbl, &Processor{Sample: s}, 43); err == nil {
		t.Error("cube-less processor accepted")
	}
	// Non-uniform sample → no maintainer.
	mb, _ := sample.NewMeasureBiased(tbl, "a", 0.1, 44)
	if _, err := NewMaintainer(tbl, &Processor{Sample: mb, Cube: p.Cube}, 45); err == nil {
		t.Error("measure-biased sample accepted")
	}
}

// --- Manager (Appendix C: multiple query templates) ---

func TestManagerAllocatesAndRoutes(t *testing.T) {
	tbl := testTable(30000, 50)
	templates := []cube.Template{
		{Agg: "a", Dims: []string{"c1"}},
		{Agg: "a", Dims: []string{"c1", "c2"}},
	}
	m, err := BuildManager(context.Background(), tbl, ManagerConfig{
		Templates: templates, TotalCells: 200, SampleRate: 0.05, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Processors) != 2 || len(m.Budgets) != 2 {
		t.Fatalf("manager built %d processors", len(m.Processors))
	}
	if m.Budgets[0]+m.Budgets[1] > 200 {
		t.Errorf("budgets %v exceed total", m.Budgets)
	}
	// A c1-only query routes to the 1-D template (tighter cube).
	q1 := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 10, Hi: 60}}}
	if got := m.Route(q1); got != 0 {
		t.Errorf("Route(1D query) = %d, want 0", got)
	}
	// A 2-D query routes to the 2-D template.
	q2 := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 10, Hi: 60}, {Col: "c2", Lo: 5, Hi: 25}}}
	if got := m.Route(q2); got != 1 {
		t.Errorf("Route(2D query) = %d, want 1", got)
	}
	// Answers flow through.
	truth, _ := tbl.Execute(q2)
	ans, used, err := m.Answer(q2)
	if err != nil {
		t.Fatal(err)
	}
	if used != 1 {
		t.Errorf("answered with template %d", used)
	}
	if rel := math.Abs(ans.Estimate.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("manager answer off by %v", rel)
	}
}

func TestManagerValidation(t *testing.T) {
	tbl := testTable(1000, 52)
	if _, err := BuildManager(context.Background(), tbl, ManagerConfig{TotalCells: 10, SampleRate: 0.1}); err == nil {
		t.Error("no templates accepted")
	}
	if _, err := BuildManager(context.Background(), tbl, ManagerConfig{
		Templates:  []cube.Template{{Agg: "a", Dims: []string{"c1"}}, {Agg: "a", Dims: []string{"c2"}}},
		TotalCells: 1, SampleRate: 0.1,
	}); err == nil {
		t.Error("budget below template count accepted")
	}
}

// --- Space allocation (Appendix C) ---

func TestPlanSpace(t *testing.T) {
	tbl := testTable(50000, 60)
	plan, err := PlanSpace(tbl, 200_000, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SampleRows < 1 || plan.SampleRows > 50000 {
		t.Errorf("sample rows = %d", plan.SampleRows)
	}
	if plan.SampleBytes+plan.CubeBytes > 200_000 {
		t.Errorf("plan exceeds budget: %+v", plan)
	}
	if plan.CubeCells < 0 {
		t.Errorf("negative cube cells")
	}
	// A huge response budget should be limited by space instead.
	plan2, err := PlanSpace(tbl, 100_000, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.SampleBytes > 100_000 {
		t.Errorf("space cap ignored: %+v", plan2)
	}
	if _, err := PlanSpace(tbl, 0, time.Second); err == nil {
		t.Error("zero budget accepted")
	}
}

// --- Bootstrap answers (§4.2.2) ---

func TestAnswerBootstrapMatchesClosedForm(t *testing.T) {
	tbl := testTable(30000, 70)
	p := buildProcessor(t, tbl, []string{"c1"}, 20)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 13, Hi: 67}}}
	closed, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := p.AnswerBootstrap(context.Background(), q, 300, 71, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(boot.Estimate.Value-closed.Estimate.Value) > 1e-6*math.Abs(closed.Estimate.Value)+1e-9 {
		t.Errorf("bootstrap point %v != closed %v", boot.Estimate.Value, closed.Estimate.Value)
	}
	// Intervals agree within a modest factor (unless both are ~exact).
	if closed.Estimate.HalfWidth > 0 {
		ratio := boot.Estimate.HalfWidth / closed.Estimate.HalfWidth
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("bootstrap ε %v vs closed ε %v", boot.Estimate.HalfWidth, closed.Estimate.HalfWidth)
		}
	}
}

// TestAnswerBootstrapCoveredWindowZeroWidth pins the cube-covered case:
// the chosen pre matches the query on every sample row, so every
// replicate equals pre(D) and the percentile interval has zero width.
// Interpolating between the two equal order statistics around a
// percentile can land an ulp off; for this window that would give a
// half-width of about −1e-10.
func TestAnswerBootstrapCoveredWindowZeroWidth(t *testing.T) {
	tbl := testTable(20000, 5)
	p := buildProcessor(t, tbl, []string{"c1"}, 20)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 26, Hi: 82}}}
	ans, err := p.AnswerBootstrap(context.Background(), q, 200, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Pre.IsPhi() || ans.Estimate.HalfWidth != 0 || ans.Estimate.Value != ans.PreValue {
		t.Errorf("covered window: pre %s, %v ± %v, pre(D) %v; want pre(D) ± 0",
			ans.Pre, ans.Estimate.Value, ans.Estimate.HalfWidth, ans.PreValue)
	}
}

func TestAnswerBootstrapRejects(t *testing.T) {
	tbl := testTable(2000, 72)
	p := buildProcessor(t, tbl, []string{"c1"}, 5)
	if _, err := p.AnswerBootstrap(context.Background(), engine.Query{Func: engine.Avg, Col: "a"}, 10, 1, nil); err == nil {
		t.Error("AVG accepted")
	}
	if _, err := p.AnswerBootstrap(context.Background(), engine.Query{Func: engine.Sum, Col: "a", GroupBy: []string{"g"}}, 10, 1, nil); err == nil {
		t.Error("GROUP BY accepted")
	}
}

func TestAnswerBootstrapDeterministic(t *testing.T) {
	tbl := testTable(5000, 73)
	p := buildProcessor(t, tbl, []string{"c1"}, 10)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 20, Hi: 70}}}
	a, err := p.AnswerBootstrap(context.Background(), q, 50, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AnswerBootstrap(context.Background(), q, 50, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate {
		t.Errorf("same seed gave %+v and %+v", a.Estimate, b.Estimate)
	}
}

// --- AnswerGroupsFast (Appendix C group-by heuristic) ---

func TestAnswerGroupsFastMatchesSlowPath(t *testing.T) {
	tbl := testTable(30000, 100)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1", "g"}},
		SampleRate: 0.1, CellBudget: 40, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges:  []engine.Range{{Col: "c1", Lo: 10, Hi: 80}},
		GroupBy: []string{"g"}}
	truthRes, _ := tbl.Execute(q)
	truth := map[string]float64{}
	for _, gr := range truthRes.Groups {
		truth[gr.Key] = gr.Value
	}
	slow, err := p.AnswerGroups(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := p.AnswerGroupsFast(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(slow) {
		t.Fatalf("fast %d groups vs slow %d", len(fast), len(slow))
	}
	slowBy := map[string]Answer{}
	for _, g := range slow {
		slowBy[g.Key] = g.Answer
	}
	for _, g := range fast {
		want := truth[g.Key]
		if rel := math.Abs(g.Answer.Estimate.Value-want) / want; rel > 0.15 {
			t.Errorf("fast group %q off truth by %v", g.Key, rel)
		}
		// The heuristic may be somewhat looser than per-group
		// identification, but not wildly (both are guarded by φ).
		sw := slowBy[g.Key].Estimate.HalfWidth
		fw := g.Answer.Estimate.HalfWidth
		if sw > 0 && fw > sw*3 {
			t.Errorf("fast group %q ε %v vs slow %v", g.Key, fw, sw)
		}
	}
}

func TestAnswerGroupsFastValidation(t *testing.T) {
	tbl := testTable(2000, 102)
	p := buildProcessor(t, tbl, []string{"c1"}, 5)
	if _, err := p.AnswerGroupsFast(context.Background(), engine.Query{Func: engine.Sum, Col: "a"}); err == nil {
		t.Error("missing GROUP BY accepted")
	}
	// No-cube path falls back to the full machinery.
	s, _ := sample.NewUniform(tbl, 0.2, 103)
	noCube := &Processor{Sample: s}
	q := engine.Query{Func: engine.Sum, Col: "a", GroupBy: []string{"g"}}
	groups, err := noCube.AnswerGroupsFast(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Errorf("fallback groups = %d", len(groups))
	}
}
