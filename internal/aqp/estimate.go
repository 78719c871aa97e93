// Package aqp implements sampling-based approximate query processing
// (Equation 3 of the paper): point estimates and confidence intervals for
// SUM, COUNT and AVG over uniform, measure-biased and stratified samples,
// plus bootstrap intervals for aggregates without a closed form.
//
// The central primitive is SumOfValues: an unbiased estimate of a
// population total Σ_D v from per-sample-row contributions v_i. Both plain
// AQP (v_i = a_i·cond(i)) and AQP++ (v_i = a_i·(cond_q(i) − cond_pre(i)))
// are built on it, which is exactly how the paper frames the connection
// (Equation 4 treats Equation 3 as a black box).
package aqp

import (
	"fmt"
	"math"
	"math/bits"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// Estimate is a point estimate with a symmetric confidence interval.
type Estimate struct {
	// Value is the point estimate.
	Value float64
	// HalfWidth is ε, half the width of the confidence interval; the
	// paper's query error (§3).
	HalfWidth float64
	// Confidence is the interval's confidence level (e.g. 0.95).
	Confidence float64
	// SampleRows is the number of sample rows that backed the estimate.
	SampleRows int
}

// RelativeError returns ε/|truth|, the paper's §7.1 error metric. It
// returns +Inf when truth is zero and ε is not.
func (e Estimate) RelativeError(truth float64) float64 {
	if truth == 0 {
		if e.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(e.HalfWidth / truth)
}

// Low returns the interval's lower bound.
func (e Estimate) Low() float64 { return e.Value - e.HalfWidth }

// High returns the interval's upper bound.
func (e Estimate) High() float64 { return e.Value + e.HalfWidth }

// SumOfValues estimates the population total Σ_D v from the per-sample-row
// contributions vals (vals[i] belongs to sample row i; rows outside the
// query's condition contribute 0). It dispatches on the sample's kind:
//
//   - uniform / measure-biased: the per-draw pseudo-values x_i = v_i/p_i
//     are (approximately) i.i.d., so the estimate is mean(x) and the CLT
//     interval is λ·sqrt(Var(x)/n) — the paper's Example 1 generalized to
//     unequal probabilities.
//   - stratified: Σ_h (N_h/n_h)·Σ_{i∈h} v_i with variance
//     Σ_h N_h²·Var_h(v)/n_h.
func SumOfValues(s *sample.Sample, vals []float64, confidence float64) Estimate {
	if len(vals) != s.Size() {
		panic(fmt.Sprintf("aqp: %d values for %d sample rows", len(vals), s.Size()))
	}
	if s.Kind == sample.Stratified {
		perStratum := make([]stats.Welford, len(s.Strata))
		for i, v := range vals {
			perStratum[s.StratumOf[i]].Add(v)
		}
		return Finish(s, perStratum, confidence)
	}
	var m [1]stats.Welford
	for i, v := range vals {
		m[0].Add(v * s.InvP[i])
	}
	return Finish(s, m[:], confidence)
}

// Finish turns the accumulators SumOfValues keeps into its estimate.
// Stratified samples keep one accumulator per stratum, fed the raw
// contributions v_i; other samples keep one, fed v_i·InvP[i]. A caller
// that feeds every row in order this way gets SumOfValues' result to
// the bit.
func Finish(s *sample.Sample, m []stats.Welford, confidence float64) Estimate {
	lambda := stats.ZScore(confidence)
	if s.Kind != sample.Stratified {
		n := m[0].Count()
		if n == 0 {
			return Estimate{Confidence: confidence}
		}
		return Estimate{
			Value:      m[0].Mean(),
			HalfWidth:  lambda * math.Sqrt(m[0].Variance()/float64(n)),
			Confidence: confidence,
			SampleRows: int(n),
		}
	}
	est := 0.0
	varTotal := 0.0
	for h, st := range s.Strata {
		m := &m[h]
		if m.Count() == 0 {
			continue
		}
		scale := float64(st.SourceRows) / float64(m.Count())
		est += scale * m.Sum()
		// Finite-population correction when a stratum is fully sampled
		// drives its variance to zero (the paper's "<N,F>" observation).
		fpc := 1 - float64(m.Count())/float64(st.SourceRows)
		if fpc < 0 {
			fpc = 0
		}
		nh := float64(m.Count())
		varTotal += float64(st.SourceRows) * float64(st.SourceRows) * m.Variance() / nh * fpc
	}
	return Estimate{
		Value:      est,
		HalfWidth:  lambda * math.Sqrt(varTotal),
		Confidence: confidence,
		SampleRows: s.Size(),
	}
}

// ConditionVector returns per-sample-row contributions a_i·1[cond(i)] for
// the query's aggregate column and range conditions. COUNT queries use
// a_i = 1. Group-by clauses are rejected here; use EstimateGroups.
func ConditionVector(s *sample.Sample, q engine.Query) ([]float64, error) {
	if len(q.GroupBy) > 0 {
		return nil, fmt.Errorf("aqp: ConditionVector does not handle GROUP BY")
	}
	sel, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, s.Size())
	var col *engine.Column
	if q.Func != engine.Count {
		col, err = s.Table.Column(q.Col)
		if err != nil {
			return nil, err
		}
	}
	// Iterate the selection word-at-a-time (peeling set bits with
	// TrailingZeros64) instead of paying a closure call per row.
	for wi, w := range sel.Words() {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if col != nil {
				vals[i] = col.Float(i)
			} else {
				vals[i] = 1
			}
		}
	}
	return vals, nil
}

// EstimateSum answers a SUM or COUNT query with a CLT confidence interval
// (plain AQP, Equation 3).
func EstimateSum(s *sample.Sample, q engine.Query, confidence float64) (Estimate, error) {
	if q.Func != engine.Sum && q.Func != engine.Count {
		return Estimate{}, fmt.Errorf("aqp: EstimateSum supports SUM/COUNT, got %v", q.Func)
	}
	vals, err := ConditionVector(s, q)
	if err != nil {
		return Estimate{}, err
	}
	return SumOfValues(s, vals, confidence), nil
}

// EstimateAvg answers an AVG query as the ratio of a SUM and a COUNT
// estimate, with a delta-method (linearization) confidence interval: the
// variance of R̂ = Â/t̂ is approximated by the variance of the residual
// total Σ w·(a − R̂)·cond divided by t̂².
func EstimateAvg(s *sample.Sample, q engine.Query, confidence float64) (Estimate, error) {
	if q.Func != engine.Avg {
		return Estimate{}, fmt.Errorf("aqp: EstimateAvg needs AVG, got %v", q.Func)
	}
	sumQ := q
	sumQ.Func = engine.Sum
	cntQ := q
	cntQ.Func = engine.Count
	sumVals, err := ConditionVector(s, sumQ)
	if err != nil {
		return Estimate{}, err
	}
	cntVals, err := ConditionVector(s, cntQ)
	if err != nil {
		return Estimate{}, err
	}
	sumEst := SumOfValues(s, sumVals, confidence)
	cntEst := SumOfValues(s, cntVals, confidence)
	if cntEst.Value == 0 {
		return Estimate{Confidence: confidence, SampleRows: s.Size()}, nil
	}
	r := sumEst.Value / cntEst.Value
	resid := make([]float64, len(sumVals))
	for i := range resid {
		resid[i] = sumVals[i] - r*cntVals[i]
	}
	residEst := SumOfValues(s, resid, confidence)
	return Estimate{
		Value:      r,
		HalfWidth:  residEst.HalfWidth / math.Abs(cntEst.Value),
		Confidence: confidence,
		SampleRows: s.Size(),
	}, nil
}

// EstimateQuery answers SUM, COUNT or AVG queries; other aggregates need
// the bootstrap (Bootstrap) or exact processing.
func EstimateQuery(s *sample.Sample, q engine.Query, confidence float64) (Estimate, error) {
	switch q.Func {
	case engine.Sum, engine.Count:
		return EstimateSum(s, q, confidence)
	case engine.Avg:
		return EstimateAvg(s, q, confidence)
	default:
		return Estimate{}, fmt.Errorf("aqp: no closed-form estimator for %v; use Bootstrap", q.Func)
	}
}

// GroupEstimate is one group's estimate.
type GroupEstimate struct {
	Key string
	Est Estimate
}

// EstimateGroups answers a group-by SUM/COUNT/AVG query, producing one
// estimate per group observed in the sample. With a stratified sample
// whose strata align with the group-by columns, each group's estimate uses
// exactly its stratum (the paper's §7.4 setting).
func EstimateGroups(s *sample.Sample, q engine.Query, confidence float64) ([]GroupEstimate, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("aqp: EstimateGroups needs GROUP BY")
	}
	cols := make([]*engine.Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c, err := s.Table.Column(g)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	scalar := q
	scalar.GroupBy = nil
	keys := make([]string, s.Size())
	seen := make(map[string]bool)
	var order []string
	for i := 0; i < s.Size(); i++ {
		keys[i] = engine.GroupKey(cols, i)
		if !seen[keys[i]] {
			seen[keys[i]] = true
			order = append(order, keys[i])
		}
	}
	out := make([]GroupEstimate, 0, len(order))
	for _, key := range order {
		gq := scalar
		est, err := estimateForGroup(s, gq, keys, key, confidence)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupEstimate{Key: key, Est: est})
	}
	return out, nil
}

func estimateForGroup(s *sample.Sample, q engine.Query, keys []string, key string, confidence float64) (Estimate, error) {
	switch q.Func {
	case engine.Sum, engine.Count:
		vals, err := ConditionVector(s, q)
		if err != nil {
			return Estimate{}, err
		}
		for i := range vals {
			if keys[i] != key {
				vals[i] = 0
			}
		}
		return SumOfValues(s, vals, confidence), nil
	case engine.Avg:
		sumQ, cntQ := q, q
		sumQ.Func = engine.Sum
		cntQ.Func = engine.Count
		sv, err := ConditionVector(s, sumQ)
		if err != nil {
			return Estimate{}, err
		}
		cv, err := ConditionVector(s, cntQ)
		if err != nil {
			return Estimate{}, err
		}
		for i := range sv {
			if keys[i] != key {
				sv[i], cv[i] = 0, 0
			}
		}
		se := SumOfValues(s, sv, confidence)
		ce := SumOfValues(s, cv, confidence)
		if ce.Value == 0 {
			return Estimate{Confidence: confidence}, nil
		}
		r := se.Value / ce.Value
		resid := make([]float64, len(sv))
		for i := range resid {
			resid[i] = sv[i] - r*cv[i]
		}
		re := SumOfValues(s, resid, confidence)
		return Estimate{
			Value: r, HalfWidth: re.HalfWidth / math.Abs(ce.Value),
			Confidence: confidence, SampleRows: s.Size(),
		}, nil
	default:
		return Estimate{}, fmt.Errorf("aqp: unsupported group aggregate %v", q.Func)
	}
}
