package ident

import (
	"fmt"
	"math"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// This file is the AQP++ answer kernel. Every closed-form answer is a
// set of chains over one sample, each the diff estimate
// SumOfValues(s, DiffVector(s, c, q, pre)) of one pre, and the kernel
// runs all of a call's chains in one pass: it builds the query mask
// once, reads the aggregate and each dimension column once per block,
// and gives every chain its own Welford accumulator. Each accumulator is
// fed exactly the values the materialized vector would hold, in row
// order, so every estimate keeps its bits. Nothing outlives the call.

// Term is one chain: the estimate of q(D) − pre(D) with a_i the query's
// aggregate column, or 1 when Count is set. Cube may be nil when Pre is
// φ (plain AQP).
type Term struct {
	Cube  *cube.BPCube
	Pre   Pre
	Count bool
}

// blockRows is the kernel's block: 256 rows keep the column scratch
// and every membership word in L1.
const blockRows = 256

// cut is one side of an interval on one dimension column: the rows
// whose ordinal is <= v (upper) or > v. The pres of P⁻ share their cuts
// (an endpoint has at most two choices), so each is tested once per row.
type cut struct {
	col   int // index into kernel.cols
	v     float64
	upper bool
	bits  []uint64 // the current block's rows inside the cut
}

// chain is a Term bound to one kernel call.
type chain struct {
	vals *blockVals
	phi  bool
	cuts []int    // indexes into kernel.cuts
	in   []uint64 // the current block's rows inside the pre
}

// blockVals holds one aggregate's contributions for the current block:
// b_r = a_r·1_q(r) outside the pre and c_r = b_r − a_r inside it, the
// float operations of ConditionVector and of DiffVector's subtraction.
type blockVals struct{ b, c []float64 }

// value returns block row r's contribution a·(1_q − 1_pre), selecting
// b_r or c_r through their bits so that no branch mispredicts.
func (ch *chain) value(r int) float64 {
	b, c := math.Float64bits(ch.vals.b[r]), math.Float64bits(ch.vals.c[r])
	return math.Float64frombits(b ^ (b^c)&-(ch.in[r>>6]>>(r&63)&1))
}

// kernel is the state one call's chains share.
type kernel struct {
	q      []uint64         // Filter's selection for q, every row
	agg    *engine.Column   // nil when every chain counts
	cols   []*engine.Column // the distinct dimension columns
	cuts   []cut
	chains []chain
	vals   [2]blockVals // SUM, COUNT; nil slices when unused
	a, ord []float64    // one block of aggregate values and ordinals
}

// scan runs terms over s and calls visit(k, lo, m) for each block of
// rows [lo, lo+m), once its values and memberships are filled.
func scan(s *sample.Sample, q engine.Query, terms []Term, visit func(k *kernel, lo, m int)) error {
	k, err := newKernel(s, q, terms)
	for lo := 0; err == nil && lo < s.Size(); lo += blockRows {
		m := min(blockRows, s.Size()-lo)
		if err = k.fill(lo, m); err == nil {
			visit(k, lo, m)
		}
	}
	return err
}

func newKernel(s *sample.Sample, q engine.Query, terms []Term) (*kernel, error) {
	if len(q.GroupBy) > 0 {
		return nil, fmt.Errorf("ident: the answer kernel does not handle GROUP BY")
	}
	m := min(s.Size(), blockRows)
	words := (m + 63) / 64
	sel, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return nil, err
	}
	k := &kernel{q: sel.Words(), ord: make([]float64, m), chains: make([]chain, len(terms))}
	in := make([]uint64, words*len(terms))
	nc := 0
	for _, t := range terms {
		nc += 2 * len(t.Pre.Hi)
	}
	cuts := make([]int, 0, nc)
	for j, t := range terms {
		ch := &k.chains[j]
		ch.vals = &k.vals[b2u(t.Count)]
		if ch.vals.b == nil {
			ch.vals.b, ch.vals.c = make([]float64, m), make([]float64, m)
			if !t.Count {
				var err error
				if k.agg, err = s.Table.Column(q.Col); err != nil {
					return nil, err
				}
				k.a = make([]float64, m)
			}
		}
		ch.in, in = in[:words:words], in[words:]
		if ch.phi = t.Pre.IsPhi(); ch.phi {
			continue
		}
		first := len(cuts)
		for i, name := range t.Cube.Template.Dims {
			col, err := s.Table.Column(name)
			if err != nil {
				return nil, err
			}
			cuts = append(cuts, k.cut(col, t.Cube.Points[i][t.Pre.Hi[i]], true))
			if t.Pre.Lo[i] >= 0 {
				cuts = append(cuts, k.cut(col, t.Cube.Points[i][t.Pre.Lo[i]], false))
			}
		}
		ch.cuts = cuts[first:len(cuts):len(cuts)]
	}
	bits := make([]uint64, words*len(k.cuts))
	for i := range k.cuts {
		k.cuts[i].bits, bits = bits[:words:words], bits[words:]
	}
	return k, nil
}

// cut returns the index of the cut (col, v, upper), adding it on first
// use; a cut is its threshold, so thresholds compare exactly.
func (k *kernel) cut(col *engine.Column, v float64, upper bool) int {
	ci := 0
	for ci < len(k.cols) && k.cols[ci] != col {
		ci++
	}
	if ci == len(k.cols) {
		k.cols = append(k.cols, col)
	}
	for i, c := range k.cuts {
		if c.col == ci && c.upper == upper && stats.ExactEqual(c.v, v) {
			return i
		}
	}
	k.cuts = append(k.cuts, cut{col: ci, v: v, upper: upper})
	return len(k.cuts) - 1
}

// fill reads rows [lo, lo+m): the aggregate column and each dimension
// column once, then every contribution, cut and membership word.
func (k *kernel) fill(lo, m int) error {
	if k.agg != nil {
		if err := k.agg.Ordinals(lo, k.a[:m]); err != nil {
			return err
		}
	}
	for ci, col := range k.cols {
		if err := col.Ordinals(lo, k.ord[:m]); err != nil {
			return err
		}
		for i := range k.cuts {
			if k.cuts[i].col == ci {
				k.cuts[i].fill(k.ord[:m])
			}
		}
	}
	for w := 0; w*64 < m; w++ {
		for j := range k.chains {
			ch := &k.chains[j]
			ch.in[w] = k.and(-b2u(!ch.phi), ch.cuts, w)
		}
	}
	q := k.q[lo/64:]
	for f, v := range k.vals {
		if v.b == nil {
			continue
		}
		bs, cs := v.b[:m], v.c[:m]
		for r := range bs {
			a := 1.0
			if f == 0 {
				a = k.a[r]
			}
			b := math.Float64frombits(math.Float64bits(a) & -(q[r>>6] >> (r & 63) & 1))
			bs[r], cs[r] = b, b-a
		}
	}
	return nil
}

// and intersects x with word w of the current block's cuts.
func (k *kernel) and(x uint64, cuts []int, w int) uint64 {
	for _, c := range cuts {
		x &= k.cuts[c].bits[w]
	}
	return x
}

// fill sets the cut's bits for one block of ordinals, shifting rows in
// from each word's top end. It is branch-free: rows arrive in random
// order, so a branch would mispredict about every other row.
func (c *cut) fill(ord []float64) {
	v := c.v
	for w := 0; w*64 < len(ord); w++ {
		seg := ord[w*64 : min(w*64+64, len(ord))]
		var bits uint64
		if c.upper {
			for r := len(seg) - 1; r >= 0; r-- {
				bits = bits<<1 | b2u(seg[r] <= v)
			}
		} else {
			for r := len(seg) - 1; r >= 0; r-- {
				bits = bits<<1 | b2u(seg[r] > v)
			}
		}
		c.bits[w] = bits
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// maxAccumulators bounds the Welford accumulators one pass holds. A
// stratified sample needs one per (term, stratum), so many candidates
// over many strata are scored a chunk of terms per pass; every
// accumulator still sees its rows in order, so chunking keeps the bits.
const maxAccumulators = 1 << 15

// Estimates returns SumOfValues(s, DiffVector(s, t.Cube, q_t, t.Pre),
// confidence) for every term t from one shared pass over s, where q_t
// is q aggregating COUNT when t.Count is set and q.Col otherwise.
func Estimates(s *sample.Sample, q engine.Query, terms []Term, confidence float64) ([]aqp.Estimate, error) {
	h := 1
	if s.Kind == sample.Stratified {
		h = len(s.Strata)
	}
	step := max(1, maxAccumulators/max(h, 1))
	acc := make([]stats.Welford, min(len(terms), step)*h)
	out := make([]aqp.Estimate, 0, len(terms))
	for len(out) < len(terms) {
		chunk := terms[len(out):min(len(terms), len(out)+step)]
		acc := acc[:len(chunk)*h]
		clear(acc)
		err := scan(s, q, chunk, func(k *kernel, lo, m int) {
			for r := 0; r < m; r++ {
				if i := lo + r; s.Kind == sample.Stratified {
					for j := range k.chains {
						acc[j*h+s.StratumOf[i]].Add(k.chains[j].value(r))
					}
				} else {
					for j := range k.chains {
						acc[j].Add(k.chains[j].value(r) * s.InvP[i])
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for j := range chunk {
			out = append(out, aqp.Finish(s, acc[j*h:(j+1)*h], confidence))
		}
	}
	return out, nil
}

// Residual returns the AVG linearization estimate SumOfValues(s, v)
// with v_i = sum_i − ratio·cnt_i, where sum_i and cnt_i are row i's
// entries of the SUM term's and the COUNT term's diff vectors.
func Residual(s *sample.Sample, q engine.Query, sum, cnt Term, ratio, confidence float64) (aqp.Estimate, error) {
	acc := make([]stats.Welford, 1)
	if s.Kind == sample.Stratified {
		acc = make([]stats.Welford, len(s.Strata))
	}
	err := scan(s, q, []Term{sum, cnt}, func(k *kernel, lo, m int) {
		for r := 0; r < m; r++ {
			v := k.chains[0].value(r) - ratio*k.chains[1].value(r)
			if i := lo + r; s.Kind == sample.Stratified {
				acc[s.StratumOf[i]].Add(v)
			} else {
				acc[0].Add(v * s.InvP[i])
			}
		}
	})
	if err != nil {
		return aqp.Estimate{}, err
	}
	return aqp.Finish(s, acc, confidence), nil
}

// DiffVector returns per-sample-row contributions
// a_i · (cond_q(i) − cond_pre(i)), the vector whose estimated population
// total is q(D) − pre(D) (Equation 4). COUNT templates use a_i = 1.
func DiffVector(s *sample.Sample, c *cube.BPCube, q engine.Query, pre Pre) ([]float64, error) {
	out := make([]float64, s.Size())
	err := scan(s, q, []Term{{Cube: c, Pre: pre, Count: q.Func == engine.Count}}, func(k *kernel, lo, m int) {
		for r := 0; r < m; r++ {
			out[lo+r] = k.chains[0].value(r)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Select runs SelectBest for several scopes of one query at once: each
// scope is a cube and an aggregate (its Pre is ignored), and every
// scope's P⁻ is scored in one shared pass over sub. A scope without a
// cube selects φ unscored, the plain-AQP answer.
func Select(sub *sample.Sample, q engine.Query, scopes []Term, confidence float64) ([]Selection, error) {
	sels := make([]Selection, len(scopes))
	var terms []Term
	for i, sc := range scopes {
		sels[i] = Selection{Pre: Pre{Phi: true}, Considered: 1}
		if sc.Cube == nil {
			continue
		}
		cands, err := Candidates(sc.Cube, q)
		if err != nil {
			return nil, err
		}
		sels[i].Considered = len(cands)
		for _, pre := range cands {
			terms = append(terms, Term{Cube: sc.Cube, Pre: pre, Count: sc.Count})
		}
	}
	if len(terms) == 0 {
		return sels, nil
	}
	ests, err := Estimates(sub, q, terms, confidence)
	if err != nil {
		return nil, err
	}
	for i, sc := range scopes {
		if sc.Cube != nil {
			n := sels[i].Considered
			sels[i] = argmin(terms[:n], ests[:n])
			terms, ests = terms[n:], ests[n:]
		}
	}
	return sels, nil
}

// argmin returns the term with the smallest half-width; the first wins
// ties, as in a sequential scan.
func argmin(terms []Term, ests []aqp.Estimate) Selection {
	best := Selection{Pre: terms[0].Pre, SubsampleError: ests[0].HalfWidth, Considered: len(terms)}
	for j := 1; j < len(terms); j++ {
		if ests[j].HalfWidth < best.SubsampleError {
			best.Pre, best.SubsampleError = terms[j].Pre, ests[j].HalfWidth
		}
	}
	return best
}
