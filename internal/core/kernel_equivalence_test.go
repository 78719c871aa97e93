package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// This file holds the materialized answer path that the one-pass answer
// kernel (internal/ident/kernel.go) replaced, kept as a test oracle:
// one DiffVector per candidate built from ConditionVector and a
// row-at-a-time membership test, the moments taken over each
// materialized vector, the φ guard and the AVG residual materialized
// too. TestAnswerKernelEquivalence requires the kernel to reproduce it
// bit for bit.

// refSumOfValues is SumOfValues over a materialized vector.
func refSumOfValues(s *sample.Sample, vals []float64, confidence float64) aqp.Estimate {
	lambda := stats.ZScore(confidence)
	if s.Kind == sample.Stratified {
		perStratum := make([]stats.Moments, len(s.Strata))
		for i, v := range vals {
			perStratum[s.StratumOf[i]].Add(v)
		}
		est, varTotal := 0.0, 0.0
		for h, st := range s.Strata {
			m := &perStratum[h]
			if m.Count() == 0 {
				continue
			}
			est += float64(st.SourceRows) / float64(m.Count()) * m.Sum()
			fpc := math.Max(1-float64(m.Count())/float64(st.SourceRows), 0)
			nh := float64(m.Count())
			varTotal += float64(st.SourceRows) * float64(st.SourceRows) * m.Variance() / nh * fpc
		}
		return aqp.Estimate{Value: est, HalfWidth: lambda * math.Sqrt(varTotal), Confidence: confidence, SampleRows: len(vals)}
	}
	n := len(vals)
	if n == 0 {
		return aqp.Estimate{Confidence: confidence}
	}
	var m stats.Moments
	for i, v := range vals {
		m.Add(v * s.InvP[i])
	}
	return aqp.Estimate{Value: m.Mean(), HalfWidth: lambda * math.Sqrt(m.Variance()/float64(n)), Confidence: confidence, SampleRows: n}
}

// refDiffVector is DiffVector as ConditionVector minus a_i on the rows
// a per-row Column.Ordinal test places inside the pre.
func refDiffVector(s *sample.Sample, c *cube.BPCube, q engine.Query, pre ident.Pre) ([]float64, error) {
	vals, err := aqp.ConditionVector(s, q)
	if err != nil || pre.IsPhi() {
		return vals, err
	}
	var agg *engine.Column
	if q.Func != engine.Count {
		if agg, err = s.Table.Column(q.Col); err != nil {
			return nil, err
		}
	}
	cols := make([]*engine.Column, len(c.Template.Dims))
	for i, name := range c.Template.Dims {
		if cols[i], err = s.Table.Column(name); err != nil {
			return nil, err
		}
	}
	for row := range vals {
		in := true
		for i, col := range cols {
			ord := col.Ordinal(row)
			hasLo := pre.Lo[i] >= 0
			if !(ord <= c.Points[i][pre.Hi[i]] && (!hasLo || ord > c.Points[i][pre.Lo[i]])) {
				in = false
			}
		}
		if in {
			if agg != nil {
				vals[row] -= agg.Float(row)
			} else {
				vals[row] -= 1
			}
		}
	}
	return vals, nil
}

// refSelectBest scores the candidates one materialized vector at a time.
func refSelectBest(c *cube.BPCube, q engine.Query, sub *sample.Sample, confidence float64) (ident.Selection, error) {
	cands, err := ident.Candidates(c, q)
	if err != nil {
		return ident.Selection{}, err
	}
	best := ident.Selection{Considered: len(cands)}
	for i, pre := range cands {
		vals, err := refDiffVector(sub, c, q, pre)
		if err != nil {
			return ident.Selection{}, err
		}
		if est := refSumOfValues(sub, vals, confidence); i == 0 || est.HalfWidth < best.SubsampleError {
			best.Pre, best.SubsampleError = pre, est.HalfWidth
		}
	}
	return best, nil
}

// refWithPre estimates pre on the full sample with the materialized φ
// guard and adds pre(D).
func refWithPre(p *Processor, q engine.Query, c *cube.BPCube, pre ident.Pre, considered int) (Answer, error) {
	conf := p.confidence()
	vals, err := refDiffVector(p.Sample, c, q, pre)
	if err != nil {
		return Answer{}, err
	}
	diff := refSumOfValues(p.Sample, vals, conf)
	if !pre.IsPhi() {
		phiVals, err := aqp.ConditionVector(p.Sample, q)
		if err != nil {
			return Answer{}, err
		}
		if phi := refSumOfValues(p.Sample, phiVals, conf); phi.HalfWidth < diff.HalfWidth {
			pre, diff = ident.Pre{Phi: true}, phi
		}
	}
	preVal := pre.Value(c)
	return Answer{
		Estimate: aqp.Estimate{Value: preVal + diff.Value, HalfWidth: diff.HalfWidth, Confidence: conf, SampleRows: diff.SampleRows},
		Pre:      pre, PreValue: preVal, Candidates: considered,
	}, nil
}

// refAnswerSum is the SUM/COUNT pipeline against cube c (nil or an
// aggregate mismatch means plain AQP).
func refAnswerSum(p *Processor, q engine.Query, c *cube.BPCube, cubeAgg string) (Answer, error) {
	if c == nil || c.Template.Agg != cubeAgg {
		vals, err := aqp.ConditionVector(p.Sample, q)
		if err != nil {
			return Answer{}, err
		}
		return Answer{Estimate: refSumOfValues(p.Sample, vals, p.confidence()), Pre: ident.Pre{Phi: true}, Candidates: 1}, nil
	}
	sel, err := refSelectBest(c, q, p.subsample(), p.confidence())
	if err != nil {
		return Answer{}, err
	}
	return refWithPre(p, q, c, sel.Pre, sel.Considered)
}

// refAnswer is Processor.Answer for SUM, COUNT and AVG on the
// materialized path; AVG runs the SUM and COUNT pipelines separately
// and materializes the residual.
func refAnswer(p *Processor, q engine.Query) (Answer, error) {
	sumQ, cntQ := q, q
	sumQ.Func, cntQ.Func = engine.Sum, engine.Count
	switch q.Func {
	case engine.Sum:
		return refAnswerSum(p, q, p.Cube, q.Col)
	case engine.Count:
		return refAnswerSum(p, q, p.countCube(), "")
	}
	sumAns, err := refAnswerSum(p, sumQ, p.Cube, q.Col)
	if err != nil {
		return Answer{}, err
	}
	cntAns, err := refAnswerSum(p, cntQ, p.countCube(), "")
	if err != nil {
		return Answer{}, err
	}
	conf := p.confidence()
	if cntAns.Estimate.Value == 0 {
		return Answer{Estimate: aqp.Estimate{Confidence: conf, SampleRows: p.Sample.Size()}, Pre: sumAns.Pre}, nil
	}
	r := sumAns.Estimate.Value / cntAns.Estimate.Value
	vectors := func(q engine.Query, c *cube.BPCube, pre ident.Pre) ([]float64, error) {
		if c == nil || pre.IsPhi() {
			return aqp.ConditionVector(p.Sample, q)
		}
		return refDiffVector(p.Sample, c, q, pre)
	}
	sumVals, err := vectors(sumQ, p.Cube, sumAns.Pre)
	if err != nil {
		return Answer{}, err
	}
	cntVals, err := vectors(cntQ, p.countCube(), cntAns.Pre)
	if err != nil {
		return Answer{}, err
	}
	resid := make([]float64, len(sumVals))
	for i := range resid {
		resid[i] = sumVals[i] - r*cntVals[i]
	}
	re := refSumOfValues(p.Sample, resid, conf)
	return Answer{
		Estimate: aqp.Estimate{Value: r, HalfWidth: re.HalfWidth / math.Abs(cntAns.Estimate.Value), Confidence: conf, SampleRows: p.Sample.Size()},
		Pre:      sumAns.Pre, PreValue: sumAns.PreValue, Candidates: sumAns.Candidates + cntAns.Candidates,
	}, nil
}

// sameAnswer fails unless got and want agree bit for bit.
func sameAnswer(t *testing.T, label string, got, want Answer, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	bits := math.Float64bits
	if bits(got.Estimate.Value) != bits(want.Estimate.Value) ||
		bits(got.Estimate.HalfWidth) != bits(want.Estimate.HalfWidth) ||
		bits(got.Estimate.Confidence) != bits(want.Estimate.Confidence) ||
		got.Estimate.SampleRows != want.Estimate.SampleRows ||
		bits(got.PreValue) != bits(want.PreValue) ||
		got.Pre.String() != want.Pre.String() || got.Candidates != want.Candidates {
		t.Fatalf("%s:\n got  %v ± %v pre %s (%v) rows %d cands %d\n want %v ± %v pre %s (%v) rows %d cands %d", label,
			got.Estimate.Value, got.Estimate.HalfWidth, got.Pre, got.PreValue, got.Estimate.SampleRows, got.Candidates,
			want.Estimate.Value, want.Estimate.HalfWidth, want.Pre, want.PreValue, want.Estimate.SampleRows, want.Candidates)
	}
}

// kernelTable is the equivalence fixture: int dimensions c1–c3 and
// d1–d7, a float dimension f, a string dimension g, a skewed string
// stratum column h, a positive measure a and non-cube columns x (int)
// and y (float, 2% NaN: Filter's zone maps admit NaN rows in blocks
// that a range covers, so the kernel must keep that selection).
func kernelTable(n int, r *stats.RNG) *engine.Table {
	cols := map[string][]int64{}
	ints := []struct {
		name string
		dom  int
	}{{"c1", 60}, {"c2", 25}, {"c3", 10}, {"x", 1000}, {"d1", 8}, {"d2", 8}, {"d3", 8}, {"d4", 8}, {"d5", 8}, {"d6", 8}, {"d7", 8}}
	for _, c := range ints {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(r.Intn(c.dom) + 1)
		}
		cols[c.name] = v
	}
	f := make([]float64, n)
	y := make([]float64, n)
	a := make([]float64, n)
	g := make([]string, n)
	h := make([]string, n)
	for i := 0; i < n; i++ {
		f[i] = math.Round(r.Float64()*10000) / 100
		if y[i] = r.Float64() * 10; r.Intn(50) == 0 {
			y[i] = math.NaN()
		}
		a[i] = math.Max(0.5, 50+0.3*float64(cols["c1"][i])+12*r.NormFloat64())
		g[i] = []string{"ant", "bee", "cat", "dog", "eel"}[r.Intn(5)]
		h[i] = "z"
		if u := r.Intn(20); u == 0 {
			h[i] = "x"
		} else if u < 6 {
			h[i] = "y"
		}
	}
	tc := []*engine.Column{engine.NewFloatColumn("f", f), engine.NewFloatColumn("y", y), engine.NewFloatColumn("a", a),
		engine.NewStringColumn("g", g), engine.NewStringColumn("h", h)}
	for _, c := range ints {
		tc = append(tc, engine.NewIntColumn(c.name, cols[c.name]))
	}
	return engine.MustNewTable("k", tc...)
}

// kernelPoints draws k strictly ascending partition points from the
// column's stored ordinals.
func kernelPoints(t *testing.T, tbl *engine.Table, dim string, k int, r *stats.RNG) []float64 {
	col := tbl.MustColumn(dim)
	seen := map[float64]bool{}
	var distinct []float64
	for i := 0; i < col.Len(); i++ {
		if o := col.Ordinal(i); !seen[o] {
			seen[o] = true
			distinct = append(distinct, o)
		}
	}
	sort.Float64s(distinct)
	if k > len(distinct) {
		k = len(distinct)
	}
	picked := map[int]bool{}
	for len(picked) < k {
		picked[r.Intn(len(distinct))] = true
	}
	var pts []float64
	for i, o := range distinct {
		if picked[i] {
			pts = append(pts, o)
		}
	}
	return pts
}

// kernelCubes builds SUM and COUNT cubes over dims on shared points.
func kernelCubes(t *testing.T, tbl *engine.Table, dims []string, r *stats.RNG) (*cube.BPCube, *cube.BPCube) {
	t.Helper()
	points := make([][]float64, len(dims))
	for i, d := range dims {
		points[i] = kernelPoints(t, tbl, d, 2+r.Intn(6), r)
	}
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := cube.Build(tbl, cube.Template{Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	return c, cc
}

// kernelProcessor is a processor over s and the cubes with a subsample
// at subRate (0: no subsample, so identification scores on s; -1: an
// empty subsample).
func kernelProcessor(s *sample.Sample, c, cc *cube.BPCube, subRate float64, r *stats.RNG) *Processor {
	p := &Processor{Sample: s, Cube: c, CountCube: cc, Confidence: []float64{0.95, 0.9}[r.Intn(2)]}
	switch {
	case subRate > 0:
		p.Sub = s.Subsample(subRate, r.Uint64())
	case subRate < 0:
		p.Sub = emptySample(s)
	}
	return p
}

// emptySample returns a zero-row sample with s's kind and structure.
func emptySample(s *sample.Sample) *sample.Sample {
	out := &sample.Sample{Kind: s.Kind, Table: s.Table.Gather("empty", nil), SourceRows: s.SourceRows}
	if s.InvP != nil {
		out.InvP = []float64{}
	}
	if s.Strata != nil {
		out.Strata = append([]sample.Stratum(nil), s.Strata...)
		out.StratumOf = []int{}
	}
	return out
}

// kernelQuery draws a query restricting a random subset of dims (and
// sometimes the non-cube columns x and y): narrow, wide, empty or
// unbounded. dom holds each column's ordinal domain.
func kernelQuery(dom map[string][2]float64, dims []string, f engine.AggFunc, r *stats.RNG) engine.Query {
	q := engine.Query{Func: f, Col: "a"}
	for _, d := range append(append([]string(nil), dims...), "x", "y") {
		if r.Intn(4) == 0 {
			continue
		}
		lo, hi := dom[d][0], dom[d][1]
		a := lo + r.Float64()*(hi-lo)
		b := lo + r.Float64()*(hi-lo)
		if a > b {
			a, b = b, a
		}
		switch r.Intn(8) {
		case 0:
			a, b = hi+1, hi+5 // selects nothing
		case 1:
			a, b = lo-3, hi+3
		case 2:
			a, b = math.Floor(a), math.Floor(a) // one value
		}
		q.Ranges = append(q.Ranges, engine.Range{Col: d, Lo: a, Hi: b})
	}
	return q
}

// domains returns every column's ordinal domain; y's first row may be
// NaN, which makes its computed domain NaN, so it is set to [0, 10].
func domains(tbl *engine.Table) map[string][2]float64 {
	dom := map[string][2]float64{"y": {0, 10}}
	for _, c := range tbl.Columns {
		if c.Name != "y" {
			lo, hi := c.OrdinalDomain()
			dom[c.Name] = [2]float64{lo, hi}
		}
	}
	return dom
}

// checkKernel compares Answer, SelectBest, DiffVector and the guarded
// estimate of a random candidate against the materialized path.
func checkKernel(t *testing.T, label string, p *Processor, q engine.Query, r *stats.RNG) {
	t.Helper()
	got, gotErr := p.Answer(q)
	want, wantErr := refAnswer(p, q)
	sameAnswer(t, label+" answer", got, want, gotErr, wantErr)
	if q.Func == engine.Avg || p.Cube == nil {
		return
	}
	c := p.Cube
	if q.Func == engine.Count {
		c = p.countCube()
	}
	if c == nil {
		return
	}
	sel, err := ident.SelectBest(c, q, p.subsample(), p.confidence())
	ref, refErr := refSelectBest(c, q, p.subsample(), p.confidence())
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%s SelectBest: error %v, reference error %v", label, err, refErr)
	}
	if err != nil {
		return
	}
	if sel.Pre.String() != ref.Pre.String() || sel.Considered != ref.Considered ||
		math.Float64bits(sel.SubsampleError) != math.Float64bits(ref.SubsampleError) {
		t.Fatalf("%s SelectBest: %s %v (%d) != reference %s %v (%d)", label,
			sel.Pre, sel.SubsampleError, sel.Considered, ref.Pre, ref.SubsampleError, ref.Considered)
	}
	cands, _ := ident.Candidates(c, q)
	pre := cands[r.Intn(len(cands))]
	dv, err := ident.DiffVector(p.Sample, c, q, pre)
	rdv, refErr := refDiffVector(p.Sample, c, q, pre)
	if err != nil || refErr != nil {
		t.Fatalf("%s DiffVector: %v / %v", label, err, refErr)
	}
	for i := range rdv {
		if math.Float64bits(dv[i]) != math.Float64bits(rdv[i]) {
			t.Fatalf("%s DiffVector row %d: %v != %v", label, i, dv[i], rdv[i])
		}
	}
	if q.Func == engine.Sum {
		g, err := p.guarded(q, []ident.Term{{Cube: c}}, []ident.Selection{{Pre: pre, Considered: len(cands)}})
		w, refErr := refWithPre(p, q, c, pre, len(cands))
		if err != nil || refErr != nil {
			t.Fatalf("%s guarded: %v / %v", label, err, refErr)
		}
		sameAnswer(t, label+" guarded", g[0], w, nil, nil)
	}
}

// TestAnswerKernelEquivalence drives the answer kernel through every
// sample kind, aggregate and cube shape it serves and requires each
// answer, selection and diff vector to match the materialized path bit
// for bit.
func TestAnswerKernelEquivalence(t *testing.T) {
	r := stats.NewRNG(20261017)
	funcs := []engine.AggFunc{engine.Sum, engine.Count, engine.Avg}
	dimSets := [][]string{{"c1"}, {"f"}, {"g"}, {"c1", "g"}, {"f", "c2"}, {"c1", "f", "g"}, {"c2", "c3", "f"}}
	// 900 rows keep the sample below one kernel block and the engine's
	// zone-map threshold; 10,000 cross both, with a partial tail block.
	for _, n := range []int{3000, 40000} {
		tbl := kernelTable(n, r)
		dom := domains(tbl)
		rate := 0.3
		if n > 3000 {
			rate = 0.25
		}
		uni, err := sample.NewUniform(tbl, rate, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		mb, err := sample.NewMeasureBiased(tbl, "a", rate, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		strat, err := sample.NewStratified(tbl, []string{"h"}, rate, 40, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		samples := []*sample.Sample{uni, mb, strat}
		for _, dims := range dimSets {
			c, cc := kernelCubes(t, tbl, dims, r)
			for _, s := range samples {
				for _, subRate := range []float64{0.1, 0.5, 0, -1} {
					p := kernelProcessor(s, c, cc, subRate, r)
					for trial := 0; trial < 2; trial++ {
						q := kernelQuery(dom, dims, funcs[r.Intn(len(funcs))], r)
						checkKernel(t, fmt.Sprintf("n=%d %v dims=%v sub=%v %v", n, s.Kind, dims, subRate, q), p, q, r)
					}
				}
			}
		}
		// Partial processors: no COUNT cube (COUNT and AVG's count side
		// fall back to plain AQP) and a SUM cube over another column
		// (SUM falls back).
		c, _ := kernelCubes(t, tbl, []string{"c1", "g"}, r)
		for _, s := range samples {
			p := kernelProcessor(s, c, nil, 0.2, r)
			for _, f := range funcs {
				q := kernelQuery(dom, []string{"c1", "g"}, f, r)
				checkKernel(t, fmt.Sprintf("n=%d %v no count cube %v", n, s.Kind, q), p, q, r)
				q.Col = "x"
				checkKernel(t, fmt.Sprintf("n=%d %v mismatched cube %v", n, s.Kind, q), p, q, r)
			}
		}
	}

	t.Run("collapse", func(t *testing.T) {
		// d = 7 with every dimension restricted exceeds
		// DefaultMaxCandidates, so Candidates collapses brackets.
		tbl := kernelTable(4000, r)
		s, err := sample.NewUniform(tbl, 0.5, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		dims := []string{"d1", "d2", "d3", "d4", "d5", "d6", "d7"}
		c, cc := kernelCubes(t, tbl, dims, r)
		p := kernelProcessor(s, c, cc, 0.05, r)
		for i := range dims {
			pts := []float64{2, 4, 6, 8}
			p.Cube.Points[i], p.CountCube.Points[i] = pts, pts
		}
		for _, f := range funcs {
			q := engine.Query{Func: f, Col: "a"}
			for _, d := range dims {
				q.Ranges = append(q.Ranges, engine.Range{Col: d, Lo: 3, Hi: 5})
			}
			cands, err := ident.Candidates(p.Cube, q)
			if err != nil || len(cands) > ident.DefaultMaxCandidates+1 || len(cands) < 2 {
				t.Fatalf("collapse: %d candidates, %v", len(cands), err)
			}
			checkKernel(t, fmt.Sprintf("collapse %v", f), p, q, r)
		}
	})

	t.Run("maintainer", func(t *testing.T) {
		tbl := kernelTable(6000, r)
		p, _, err := Build(context.Background(), tbl, BuildConfig{
			Template:   cube.Template{Agg: "a", Dims: []string{"c1", "g"}},
			SampleRate: 0.2, CellBudget: 30, Seed: r.Uint64(), WithCountCube: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMaintainer(tbl, p, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 300; i++ {
				row := make([]interface{}, len(tbl.Columns))
				for j, col := range tbl.Columns {
					switch col.Type {
					case engine.Int64:
						row[j] = int64(r.Intn(60) + 1)
					case engine.Float64:
						row[j] = 1 + r.Float64()*99
					default:
						row[j] = col.Dict[r.Intn(len(col.Dict))]
					}
				}
				if err := m.Insert(row...); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range funcs {
				q := kernelQuery(domains(tbl), []string{"c1", "g"}, f, r)
				checkKernel(t, fmt.Sprintf("maintainer round %d %v", round, q), p, q, r)
			}
		}
	})

	t.Run("progressive", func(t *testing.T) {
		tbl := kernelTable(5000, r)
		dims := []string{"c1", "f"}
		c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: dims},
			[][]float64{kernelPoints(t, tbl, "c1", 5, r), kernelPoints(t, tbl, "f", 4, r)})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := NewProgressive(tbl, c, 0.95, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []int{1, 40, 700, 1500} {
			prog.Step(step)
			q := kernelQuery(domains(tbl), dims, engine.Sum, r)
			got, gotErr := prog.Answer(q)
			want, wantErr := refAnswer(&Processor{Sample: prog.sample, Cube: c, Confidence: prog.conf}, q)
			sameAnswer(t, fmt.Sprintf("progressive at %d rows %v", prog.SampleSize(), q), got, want, gotErr, wantErr)
		}
	})
}
