package core

import (
	"context"
	"fmt"

	"aqppp/internal/engine"
	"aqppp/internal/ident"
)

// AnswerGroupsFast answers a group-by query with the Appendix C
// heuristic: aggregate identification runs once on the group-stripped
// query ("we consider all groups as the same"), and the chosen pre's
// condition-dimension alignment is reused for every group, with the
// group-by dimensions pinned to each group's block. This trades a little
// per-group accuracy for one identification pass instead of one per
// group — the paper's answer to "this may be costly when the number of
// groups is large".
//
// Every per-group answer keeps the φ-guard: a group whose reused pre is
// worse than plain AQP on the full sample falls back to AQP, so the
// result is never worse than AnswerGroups' φ baseline.
func (p *Processor) AnswerGroupsFast(ctx context.Context, q engine.Query) ([]GroupAnswer, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("core: AnswerGroupsFast needs GROUP BY")
	}
	if p.Cube == nil || q.Func != engine.Sum || p.Cube.Template.Agg != q.Col {
		// Without a usable cube the heuristic has nothing to share.
		return p.AnswerGroups(ctx, q)
	}
	conf := p.confidence()
	scalar := q
	scalar.GroupBy = nil

	sel, err := ident.SelectBest(p.Cube, scalar, p.subsample(), conf)
	if err != nil {
		return nil, err
	}

	cols := make([]*engine.Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c, err := p.Sample.Table.Column(g)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	// Which cube dimensions are group-by columns? A slice (not a map)
	// keeps the pinning order deterministic.
	var groupDims []dimBinding
	for gi, g := range q.GroupBy {
		for di, d := range p.Cube.Template.Dims {
			if d == g {
				groupDims = append(groupDims, dimBinding{dim: di, col: gi})
			}
		}
	}

	n := p.Sample.Size()
	seen := map[string][]float64{}
	var order []string
	for i := 0; i < n; i++ {
		key := engine.GroupKey(cols, i)
		if _, ok := seen[key]; !ok {
			ords := make([]float64, len(cols))
			for j, c := range cols {
				ords[j] = c.Ordinal(i)
			}
			seen[key] = ords
			order = append(order, key)
		}
	}

	out := make([]GroupAnswer, 0, len(order))
	for _, key := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ords := seen[key]
		gq := scalar
		gq.Ranges = append(append([]engine.Range(nil), scalar.Ranges...), pinRanges(q.GroupBy, ords)...)

		pre := sel.Pre
		if !pre.IsPhi() && len(groupDims) > 0 {
			pre = pinPreToGroup(p, pre, groupDims, ords)
		}
		ans, err := p.guarded(gq, []ident.Term{{Cube: p.Cube}}, []ident.Selection{{Pre: pre, Considered: sel.Considered}})
		if err != nil {
			return nil, err
		}
		out = append(out, GroupAnswer{Key: key, Answer: ans[0]})
	}
	return out, nil
}

// dimBinding pins one cube dimension (by template index) to a group-by
// column (by position in the GROUP BY list).
type dimBinding struct{ dim, col int }

// pinPreToGroup narrows the shared pre's group dimensions to the block
// containing each group's ordinal.
func pinPreToGroup(p *Processor, pre ident.Pre, groupDims []dimBinding, ords []float64) ident.Pre {
	out := ident.Pre{
		Lo: append([]int(nil), pre.Lo...),
		Hi: append([]int(nil), pre.Hi...),
	}
	for _, b := range groupDims {
		di := b.dim
		ord := ords[b.col]
		// The block containing ord: (largest point < ord, smallest
		// point >= ord], both from BracketLeft's two candidates.
		lo, hi := p.Cube.BracketLeft(di, ord)
		if lo >= hi { // ord above every point: clamp to the last block
			lo = hi - 1
			if lo < -1 {
				return ident.Pre{Phi: true}
			}
		}
		out.Lo[di] = lo
		out.Hi[di] = hi
	}
	return out
}
