package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// Selectivity band every generated window aims for: narrow enough that
// sampling error matters, wide enough that a 1% sample sees the range.
const (
	minSel = 0.005
	maxSel = 0.05
	// maxDraws bounds the redraws per statement; a window that never
	// lands inside the band keeps its last draw (still a valid query).
	maxDraws = 256
)

// Handle names the two preparations every single-table workload
// serves: the paper's Table 1 template and a one-dimensional date
// template.
const (
	handle2D = "d2"
	handle1D = "d1"
)

var (
	dims2D = []string{"l_orderkey", "l_suppkey"}
	dims1D = []string{"l_shipdate"}
)

// marginal is one dimension's sorted column values: a window's
// selectivity is known from two binary searches instead of a table
// scan.
type marginal struct {
	col    string
	sorted []float64
}

func newMarginal(tbl *engine.Table, col string) (marginal, error) {
	c, err := tbl.Column(col)
	if err != nil {
		return marginal{}, err
	}
	vals := make([]float64, c.Len())
	for i := range vals {
		vals[i] = c.Ordinal(i)
	}
	sort.Float64s(vals)
	return marginal{col: col, sorted: vals}, nil
}

// share is the fraction of rows with lo <= v <= hi.
func (m marginal) share(lo, hi float64) float64 {
	a := sort.SearchFloat64s(m.sorted, lo)
	b := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i] > hi })
	return float64(b-a) / float64(len(m.sorted))
}

// window draws a rank window covering about s of the rows and returns
// its value bounds and achieved share (ties can only widen it).
func (m marginal) window(r *stats.RNG, s float64) (lo, hi, got float64) {
	n := len(m.sorted)
	k := int(math.Ceil(s * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	start := r.Intn(n - k + 1)
	lo, hi = m.sorted[start], m.sorted[start+k-1]
	return lo, hi, m.share(lo, hi)
}

// logWindow draws both endpoints log-uniformly over the value domain
// (the lower from the domain's bottom, the width from 1) and returns
// the achieved share.
func (m marginal) logWindow(r *stats.RNG) (lo, hi, got float64) {
	min, max := m.sorted[0], m.sorted[len(m.sorted)-1]
	span := max - min + 1
	lo = min + math.Floor(math.Exp(r.Float64()*math.Log(span))) - 1
	hi = math.Min(max, lo+math.Floor(math.Exp(r.Float64()*math.Log(span))))
	return lo, hi, m.share(lo, hi)
}

// Stmt is one generated statement with the facts the checks and the
// summaries need.
type Stmt struct {
	Handle string
	Agg    string
	SQL    string
	// Sel is the achieved selectivity: exact for one dimension, the
	// product of the exact marginal shares for two (the key columns
	// are drawn independently).
	Sel float64
}

// Gen draws range statements over the lineitem table.
type Gen struct {
	table string
	d2    [2]marginal
	d1    marginal
}

func newGen(tbl *engine.Table) (*Gen, error) {
	g := &Gen{table: tbl.Name}
	var err error
	for i, c := range dims2D {
		if g.d2[i], err = newMarginal(tbl, c); err != nil {
			return nil, err
		}
	}
	if g.d1, err = newMarginal(tbl, dims1D[0]); err != nil {
		return nil, err
	}
	return g, nil
}

// streamRNG derives the generator for item i of a stream, so item i is
// the same whichever client draws it and in whatever order.
func streamRNG(seed uint64, salt string, i int) *stats.RNG {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(salt) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= uint64(i) * 0xbf58476d1ce4e5b9
	return stats.NewRNG(h)
}

// Window draws one statement on handle with aggregate agg ("SUM",
// "COUNT" or "AVG").
func (g *Gen) Window(r *stats.RNG, handle, agg string) Stmt {
	var conds []string
	var sel float64
	for draw := 0; draw < maxDraws; draw++ {
		target := minSel * math.Exp(r.Float64()*math.Log(maxSel/minSel))
		conds, sel = conds[:0], 1
		if handle == handle1D {
			lo, hi, got := g.d1.window(r, target)
			conds = append(conds, between(g.d1.col, lo, hi))
			sel = got
		} else {
			// The Zipf(2) keys put most rows on a few head values, so
			// rank windows would mostly collapse onto the same head
			// value and repeat. Endpoints are drawn log-uniformly over
			// the value domain instead, which keeps statements distinct
			// and ranges off the cube's partition points; the marginals
			// give each side's share.
			sel = 1
			for _, m := range g.d2 {
				lo, hi, got := m.logWindow(r)
				conds = append(conds, between(m.col, lo, hi))
				sel *= got
			}
		}
		if sel >= minSel && sel <= maxSel {
			break
		}
	}
	col := "l_extendedprice"
	if agg == "COUNT" {
		col = "*"
	}
	return Stmt{
		Handle: handle,
		Agg:    agg,
		SQL:    fmt.Sprintf("SELECT %s(%s) FROM %s WHERE %s", agg, col, g.table, strings.Join(conds, " AND ")),
		Sel:    sel,
	}
}

func between(col string, lo, hi float64) string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", col,
		strconv.FormatFloat(lo, 'f', -1, 64), strconv.FormatFloat(hi, 'f', -1, 64))
}
