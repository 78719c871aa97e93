// Package core is the AQP++ query processor (§4 of the paper): it answers
// aggregation queries by combining a precomputed BP-Cube with a sample,
// estimating the *difference* between the user query and the identified
// precomputed aggregate (Equation 4):
//
//	q(D) ≈ pre(D) + (q̂(S) − prê(S))
//
// With pre = φ it degenerates to plain AQP; with pre = q it returns the
// exact precomputed answer — the unification property of §4.2.1.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
)

// ErrUnsupported marks well-formed requests the processor cannot serve
// (an aggregate outside a path's repertoire, a GROUP BY where none is
// handled, a MIN/MAX with no covering index). Error sites wrap it so
// the exec layer can classify without string matching.
var ErrUnsupported = errors.New("unsupported")

// Processor answers queries for one query template using a sample and an
// optional BP-Cube.
type Processor struct {
	// Sample is the full sample used for final estimates.
	Sample *sample.Sample
	// Sub is the identification subsample (§5.2); if nil, identification
	// scores candidates on the full sample.
	Sub *sample.Sample
	// Cube is the SUM BP-Cube for the template; nil disables
	// precomputation entirely (pure AQP).
	Cube *cube.BPCube
	// CountCube optionally holds a COUNT cube over the same partition
	// points, enabling AQP++ AVG answers.
	CountCube *cube.BPCube
	// MinMax holds optional per-dimension range-extrema indexes for
	// exact MIN/MAX answers (the §8 future-work direction: these
	// aggregates are easy for precomputation and impossible for
	// sampling).
	MinMax []*cube.MinMaxIndex
	// Confidence is the CI level (default 0.95 when zero).
	Confidence float64
}

// Answer is an AQP++ query result.
type Answer struct {
	// Estimate is the point estimate and confidence interval.
	Estimate aqp.Estimate
	// Pre is the identified precomputed aggregate (φ when none helped).
	Pre ident.Pre
	// PreValue is pre(D), the exact precomputed constant that anchored
	// the estimate.
	PreValue float64
	// Candidates is |P⁻|, the number of aggregates considered.
	Candidates int
}

// GroupAnswer is one group's answer for group-by queries.
type GroupAnswer struct {
	Key    string
	Answer Answer
}

func (p *Processor) confidence() float64 {
	if p.Confidence == 0 {
		return 0.95
	}
	return p.Confidence
}

func (p *Processor) subsample() *sample.Sample {
	if p.Sub != nil {
		return p.Sub
	}
	return p.Sample
}

// Answer answers a SUM, COUNT or AVG query. SUM/COUNT run the full AQP++
// pipeline (identify pre on the subsample, estimate the diff on the full
// sample, add pre(D)); AVG combines a SUM and a COUNT answer with a
// delta-method interval (Appendix C).
func (p *Processor) Answer(q engine.Query) (Answer, error) {
	if len(q.GroupBy) > 0 {
		return Answer{}, fmt.Errorf("core: use AnswerGroups for GROUP BY queries")
	}
	switch q.Func {
	case engine.Sum, engine.Count:
		ans, err := p.estimate(q, p.scope(q, q.Func == engine.Count))
		if err != nil {
			return Answer{}, err
		}
		return ans[0], nil
	case engine.Avg:
		return p.answerAvg(q)
	case engine.Min, engine.Max:
		return p.answerMinMax(q)
	default:
		return Answer{}, fmt.Errorf("core: %w aggregate %v", ErrUnsupported, q.Func)
	}
}

// answerMinMax serves MIN/MAX exactly from a matching MinMaxIndex: the
// query's range columns must all be the index's single dimension.
func (p *Processor) answerMinMax(q engine.Query) (Answer, error) {
	for _, idx := range p.MinMax {
		if idx.Agg != q.Col {
			continue
		}
		covered := true
		for _, r := range q.Ranges {
			if r.Col != idx.Dim {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		v, err := idx.Answer(q)
		if err != nil {
			return Answer{}, err
		}
		return Answer{
			Estimate: aqp.Estimate{Value: v, Confidence: 1},
			Pre:      ident.Pre{Phi: true},
			PreValue: v,
		}, nil
	}
	return Answer{}, fmt.Errorf("core: %w: no MIN/MAX index covers %v (build one with WithMinMax)", ErrUnsupported, q)
}

// countCube returns the COUNT cube if available.
func (p *Processor) countCube() *cube.BPCube {
	if p.CountCube != nil {
		return p.CountCube
	}
	if p.Cube != nil && p.Cube.Template.Agg == "" {
		return p.Cube
	}
	return nil
}

// scope returns the identification scope of q's SUM (count false) or
// COUNT: the cube that backs it, or no cube (plain AQP, pre = φ) when
// none matches the aggregate.
func (p *Processor) scope(q engine.Query, count bool) ident.Term {
	c, agg := p.Cube, q.Col
	if count {
		c, agg = p.countCube(), ""
	}
	if c == nil || c.Template.Agg != agg {
		c = nil
	}
	return ident.Term{Cube: c, Count: count}
}

// estimate runs the AQP++ pipeline for each scope: identification
// scores every scope's candidates in one pass over the subsample, and
// guarded estimates the chosen pres in one pass over the full sample.
func (p *Processor) estimate(q engine.Query, scopes ...ident.Term) ([]Answer, error) {
	sels, err := ident.Select(p.subsample(), q, scopes, p.confidence())
	if err != nil {
		return nil, err
	}
	return p.guarded(q, scopes, sels)
}

// guarded estimates each scope's selected pre on the full sample next
// to φ, all in one pass, and adds pre(D). Identification scored
// candidates on a small subsample, so a pre whose full-sample interval
// is wider than φ's is replaced by φ (error(q, P) minimizes over P⁺, and
// φ ∈ P⁺ — a noisy subsample must not leave us worse than plain AQP).
func (p *Processor) guarded(q engine.Query, scopes []ident.Term, sels []ident.Selection) ([]Answer, error) {
	conf := p.confidence()
	terms := make([]ident.Term, 0, 2*len(scopes))
	for i, t := range scopes {
		t.Pre = sels[i].Pre
		terms = append(terms, t)
		if !t.Pre.IsPhi() {
			t.Pre = ident.Pre{Phi: true}
			terms = append(terms, t)
		}
	}
	ests, err := ident.Estimates(p.Sample, q, terms, conf)
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(scopes))
	for i, sel := range sels {
		pre, diff := sel.Pre, ests[0]
		if !pre.IsPhi() {
			if phi := ests[1]; phi.HalfWidth < diff.HalfWidth {
				pre, diff = ident.Pre{Phi: true}, phi
			}
			ests = ests[1:]
		}
		ests = ests[1:]
		preVal := pre.Value(scopes[i].Cube)
		out[i] = Answer{
			Estimate: aqp.Estimate{
				Value:      preVal + diff.Value,
				HalfWidth:  diff.HalfWidth,
				Confidence: conf,
				SampleRows: diff.SampleRows,
			},
			Pre:        pre,
			PreValue:   preVal,
			Candidates: sel.Considered,
		}
	}
	return out, nil
}

// answerAvg answers AVG as the ratio of an AQP++ SUM and an AQP++ COUNT,
// whose pipelines share each pass. The interval uses linearization:
// Var(R̂) ≈ Var(D̂_s − R̂·D̂_c)/T̂² where D̂_s, D̂_c are the two diff
// estimators (the pre constants carry no variance).
func (p *Processor) answerAvg(q engine.Query) (Answer, error) {
	conf := p.confidence()
	scopes := []ident.Term{p.scope(q, false), p.scope(q, true)}
	ans, err := p.estimate(q, scopes...)
	if err != nil {
		return Answer{}, err
	}
	sumAns, cntAns := ans[0], ans[1]
	if cntAns.Estimate.Value == 0 {
		return Answer{
			Estimate: aqp.Estimate{Confidence: conf, SampleRows: p.Sample.Size()},
			Pre:      sumAns.Pre,
		}, nil
	}
	r := sumAns.Estimate.Value / cntAns.Estimate.Value
	scopes[0].Pre, scopes[1].Pre = sumAns.Pre, cntAns.Pre
	re, err := ident.Residual(p.Sample, q, scopes[0], scopes[1], r, conf)
	if err != nil {
		return Answer{}, err
	}
	return Answer{
		Estimate: aqp.Estimate{
			Value:      r,
			HalfWidth:  re.HalfWidth / math.Abs(cntAns.Estimate.Value),
			Confidence: conf,
			SampleRows: p.Sample.Size(),
		},
		Pre:        sumAns.Pre,
		PreValue:   sumAns.PreValue,
		Candidates: sumAns.Candidates + cntAns.Candidates,
	}, nil
}

// AnswerGroups answers a group-by query (Appendix C): each group observed
// in the sample is answered through the scalar pipeline with the group
// pinned via equality ranges on the group-by columns. When the group-by
// attributes are cube dimensions whose values align with partition
// points, each group's pre region pins them exactly; otherwise the pre
// simply does not restrict them (still unbiased, higher variance, and the
// subsample scoring arbitrates against φ).
//
// ctx is checked once per group, so a canceled caller unwinds within
// one group's pipeline.
func (p *Processor) AnswerGroups(ctx context.Context, q engine.Query) ([]GroupAnswer, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("core: AnswerGroups needs GROUP BY")
	}
	cols := make([]*engine.Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c, err := p.Sample.Table.Column(g)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	n := p.Sample.Size()
	type groupInfo struct {
		ords []float64
	}
	seen := map[string]groupInfo{}
	var order []string
	for i := 0; i < n; i++ {
		key := engine.GroupKey(cols, i)
		if _, ok := seen[key]; !ok {
			ords := make([]float64, len(cols))
			for j, c := range cols {
				ords[j] = c.Ordinal(i)
			}
			seen[key] = groupInfo{ords: ords}
			order = append(order, key)
		}
	}
	out := make([]GroupAnswer, 0, len(order))
	for _, key := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gi := seen[key]
		gq := q
		gq.GroupBy = nil
		gq.Ranges = append(append([]engine.Range(nil), q.Ranges...), pinRanges(q.GroupBy, gi.ords)...)
		ans, err := p.Answer(gq)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupAnswer{Key: key, Answer: ans})
	}
	return out, nil
}

// pinRanges builds equality ranges pinning each group column to one
// ordinal.
func pinRanges(cols []string, ords []float64) []engine.Range {
	rs := make([]engine.Range, len(cols))
	for i := range cols {
		rs[i] = engine.Range{Col: cols[i], Lo: ords[i], Hi: ords[i]}
	}
	return rs
}
