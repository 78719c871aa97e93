package ident

import (
	"fmt"
	"math"
	"testing"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func buildData(n int, seed uint64) *engine.Table {
	r := stats.NewRNG(seed)
	c1 := make([]int64, n)
	c2 := make([]int64, n)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		c1[i] = int64(r.Intn(100) + 1)
		c2[i] = int64(r.Intn(50) + 1)
		a[i] = 100 + 20*r.NormFloat64()
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("c1", c1),
		engine.NewIntColumn("c2", c2),
		engine.NewFloatColumn("a", a),
	)
}

func equalPoints(k int, dom int) []float64 {
	pts := make([]float64, k)
	for i := range pts {
		pts[i] = float64((i + 1) * dom / k)
	}
	return pts
}

func TestCandidatesCount1D(t *testing.T) {
	tbl := buildData(2000, 1)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 2 analogue: both endpoints strictly inside blocks give
	// |P⁻| = 4 + 1.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 15, Hi: 41}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("|P⁻| = %d, want 5: %v", len(cands), cands)
	}
	if !cands[0].IsPhi() {
		t.Error("φ missing from P⁻")
	}
}

func TestCandidatesCount2D(t *testing.T) {
	tbl := buildData(3000, 2)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2"}},
		[][]float64{equalPoints(10, 100), equalPoints(5, 50)})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 15, Hi: 41}, {Col: "c2", Lo: 12, Hi: 33},
	}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	// Up to 4^2 + 1 = 17, fewer if combinations are degenerate.
	if len(cands) > 17 || len(cands) < 10 {
		t.Errorf("|P⁻| = %d, want close to 17", len(cands))
	}
}

// TestCandidatesDistinctInOrder: the enumeration yields φ first, then
// pres in ascending (Lo, Hi) order per dimension — so every pre is
// distinct without a deduplication pass — and the pres share a backing
// array without aliasing one another.
func TestCandidatesDistinctInOrder(t *testing.T) {
	tbl := buildData(3000, 2)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2"}},
		[][]float64{equalPoints(10, 100), equalPoints(5, 50)})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranges := range [][]engine.Range{
		{{Col: "c1", Lo: 15, Hi: 41}, {Col: "c2", Lo: 12, Hi: 33}},
		{{Col: "c2", Lo: 10, Hi: 10}},
		{{Col: "c1", Lo: 20, Hi: 80}},
	} {
		cands, err := Candidates(c, engine.Query{Func: engine.Sum, Col: "a", Ranges: ranges})
		if err != nil {
			t.Fatal(err)
		}
		if !cands[0].IsPhi() || len(cands) < 2 {
			t.Fatalf("%v: candidates %v", ranges, cands)
		}
		key := func(p Pre) []int {
			var k []int
			for i := range p.Lo {
				k = append(k, p.Lo[i], p.Hi[i])
			}
			return k
		}
		for i := 2; i < len(cands); i++ {
			a, b := key(cands[i-1]), key(cands[i])
			j := 0
			for j < len(a) && a[j] == b[j] {
				j++
			}
			if j == len(a) || a[j] > b[j] {
				t.Fatalf("%v: %s does not precede %s", ranges, cands[i-1], cands[i])
			}
		}
		want := cands[2].String()
		_ = append(cands[1].Lo, 99)
		_ = append(cands[1].Hi, 99)
		if got := cands[2].String(); got != want {
			t.Fatalf("appending to one pre changed the next: %s -> %s", want, got)
		}
	}
}

func TestCandidatesAlignedEndpoints(t *testing.T) {
	tbl := buildData(2000, 3)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	// Query exactly aligned to block boundaries: (10, 40] == [11, 40].
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 11, Hi: 40}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	// One candidate must be the exactly aligned pre (1:3 in indices).
	found := false
	for _, p := range cands {
		if !p.IsPhi() && p.Lo[0] == 0 && p.Hi[0] == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("aligned pre missing from %v", cands)
	}
}

func TestCandidatesUnrestrictedDim(t *testing.T) {
	tbl := buildData(2000, 4)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2"}},
		[][]float64{equalPoints(10, 100), equalPoints(5, 50)})
	// Only c1 restricted: c2 contributes its full range to every pre.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 15, Hi: 41}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("|P⁻| = %d, want 5", len(cands))
	}
	for _, p := range cands {
		if p.IsPhi() {
			continue
		}
		if p.Lo[1] != -1 || p.Hi[1] != len(c.Points[1])-1 {
			t.Errorf("unrestricted dim not full-range: %v", p)
		}
	}
}

func TestCandidatesNonCubeColumnIgnored(t *testing.T) {
	tbl := buildData(2000, 5)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 15, Hi: 41}, {Col: "c2", Lo: 1, Hi: 10},
	}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("|P⁻| = %d, want 5 (c2 is not a cube dim)", len(cands))
	}
}

func TestCandidatesNarrowQueryInsideOneBlock(t *testing.T) {
	tbl := buildData(2000, 6)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	// Query entirely inside block (10, 20]: l_x = l_y, some combinations
	// collapse; φ must still be there.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 12, Hi: 18}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 || len(cands) > 5 {
		t.Errorf("|P⁻| = %d for in-block query", len(cands))
	}
	hasPhi := false
	for _, p := range cands {
		if p.IsPhi() {
			hasPhi = true
		}
	}
	if !hasPhi {
		t.Error("φ missing")
	}
}

func TestDiffVectorPhiEqualsConditionVector(t *testing.T) {
	tbl := buildData(2000, 7)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.2, 9)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 15, Hi: 41}}}
	dv, err := DiffVector(s, c, q, Pre{Phi: true})
	if err != nil {
		t.Fatal(err)
	}
	cv, _ := aqp.ConditionVector(s, q)
	for i := range dv {
		if dv[i] != cv[i] {
			t.Fatalf("row %d: diff %v != cond %v", i, dv[i], cv[i])
		}
	}
}

func TestDiffVectorExactPreIsZero(t *testing.T) {
	// When pre == q exactly (aligned endpoints), the diff vector is all
	// zeros, so AQP++ answers exactly (the paper's "subsumes AggPre").
	tbl := buildData(2000, 8)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.2, 10)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 11, Hi: 40}}}
	pre := Pre{Lo: []int{0}, Hi: []int{3}}
	dv, err := DiffVector(s, c, q, pre)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dv {
		if v != 0 {
			t.Fatalf("row %d: diff = %v, want 0", i, v)
		}
	}
	// And pre.Value matches the exact answer.
	truth, _ := tbl.Execute(q)
	if math.Abs(pre.Value(c)-truth.Value) > 1e-9 {
		t.Errorf("pre value %v != truth %v", pre.Value(c), truth.Value)
	}
}

func TestSelectBestPrefersAlignedPre(t *testing.T) {
	tbl := buildData(5000, 11)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.2, 12)
	sub := s.Subsample(0.25, 13)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 11, Hi: 40}}}
	sel, err := SelectBest(c, q, sub, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pre.IsPhi() {
		t.Error("φ chosen despite an exactly aligned pre being available")
	}
	if sel.SubsampleError != 0 {
		t.Errorf("aligned pre error = %v, want 0", sel.SubsampleError)
	}
	if sel.Considered != 5 {
		t.Errorf("considered %d candidates", sel.Considered)
	}
}

func TestSelectBestBeatsPhiOnCoveredQueries(t *testing.T) {
	// A query mostly covered by a precomputed block should pick a non-φ
	// pre with a smaller estimated error than φ's.
	tbl := buildData(20000, 14)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.1, 15)
	sub := s.Subsample(0.25, 16)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 12, Hi: 69}}}
	sel, err := SelectBest(c, q, sub, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pre.IsPhi() {
		t.Error("expected a non-φ selection for a block-covered query")
	}
	phiVals, _ := DiffVector(sub, c, q, Pre{Phi: true})
	phiErr := aqp.SumOfValues(sub, phiVals, 0.95).HalfWidth
	if sel.SubsampleError >= phiErr {
		t.Errorf("chosen error %v not better than φ's %v", sel.SubsampleError, phiErr)
	}
}

func TestSelectBestMatchesBruteForce(t *testing.T) {
	// Lemma 3 empirically: the P⁻ argmin equals the P⁺ argmin error on
	// the same subsample (ties may differ in identity, not in error).
	for trial := uint64(0); trial < 5; trial++ {
		tbl := buildData(5000, 20+trial)
		c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
			[][]float64{equalPoints(6, 100)})
		s, _ := sample.NewUniform(tbl, 0.1, 30+trial)
		sub := s.Subsample(0.5, 40+trial)
		r := stats.NewRNG(50 + trial)
		lo := float64(r.Intn(80) + 1)
		hi := lo + float64(r.Intn(20)+5)
		q := engine.Query{Func: engine.Sum, Col: "a",
			Ranges: []engine.Range{{Col: "c1", Lo: lo, Hi: hi}}}
		fast, err := SelectBest(c, q, sub, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := BruteForceBest(c, q, sub, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if fast.SubsampleError > brute.SubsampleError*1.0001+1e-9 {
			t.Errorf("trial %d (q=[%v,%v]): P⁻ best %v worse than P⁺ best %v",
				trial, lo, hi, fast.SubsampleError, brute.SubsampleError)
		}
		if brute.Considered <= fast.Considered {
			t.Errorf("brute force considered %d <= fast %d", brute.Considered, fast.Considered)
		}
	}
}

func TestPreStringAndValue(t *testing.T) {
	if got := (Pre{Phi: true}).String(); got != "φ" {
		t.Errorf("phi String = %q", got)
	}
	p := Pre{Lo: []int{-1, 2}, Hi: []int{3, 4}}
	s := p.String()
	if s == "" || s == "φ" {
		t.Errorf("String = %q", s)
	}
	tbl := buildData(100, 30)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(4, 100)})
	if got := (Pre{Phi: true}).Value(c); got != 0 {
		t.Errorf("φ value = %v", got)
	}
	full := Pre{Lo: []int{-1}, Hi: []int{len(c.Points[0]) - 1}}
	if math.Abs(full.Value(c)-c.TotalSum()) > 1e-9 {
		t.Errorf("full pre value %v != total %v", full.Value(c), c.TotalSum())
	}
}

func TestCandidatesInvertedRange(t *testing.T) {
	tbl := buildData(100, 31)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(4, 100)})
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 50, Hi: 10}}}
	if _, err := Candidates(c, q); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestCandidatesCappedHighDims(t *testing.T) {
	// An 8-D cube: the exact P⁻ would be 4^8 + 1 = 65537; the cap must
	// shrink it while keeping φ and at least one non-φ candidate.
	n := 4000
	r := stats.NewRNG(77)
	cols := make([]*engine.Column, 0, 9)
	a := make([]float64, n)
	for i := range a {
		a[i] = 10 + r.NormFloat64()
	}
	cols = append(cols, engine.NewFloatColumn("a", a))
	dims := make([]string, 8)
	points := make([][]float64, 8)
	for d := 0; d < 8; d++ {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(20) + 1)
		}
		name := fmt.Sprintf("d%d", d)
		cols = append(cols, engine.NewIntColumn(name, vals))
		dims[d] = name
		points[d] = []float64{5, 10, 15, 20}
	}
	tbl := engine.MustNewTable("t", cols...)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	var ranges []engine.Range
	for d := 0; d < 8; d++ {
		ranges = append(ranges, engine.Range{Col: dims[d], Lo: 3, Hi: 17})
	}
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: ranges}
	cands, err := CandidatesCapped(c, q, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > 257 {
		t.Errorf("cap ignored: |P⁻| = %d", len(cands))
	}
	if len(cands) < 2 {
		t.Errorf("cap too aggressive: |P⁻| = %d", len(cands))
	}
	// Unlimited enumeration really is huge.
	full, err := CandidatesCapped(c, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(cands) {
		t.Errorf("unlimited %d <= capped %d", len(full), len(cands))
	}
}

// TestEstimatesManyStrata: a d=3 candidate set over ~1000 strata needs
// more accumulators than one pass holds, so Estimates scores it a chunk
// of terms per pass. Every estimate must still equal the materialized
// SumOfValues(DiffVector) bit for bit.
func TestEstimatesManyStrata(t *testing.T) {
	const n = 20000
	r := stats.NewRNG(11)
	c1, c2, c3, h := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	a := make([]float64, n)
	for i := range a {
		c1[i], c2[i], c3[i] = int64(r.Intn(100)+1), int64(r.Intn(50)+1), int64(r.Intn(40)+1)
		h[i] = int64(r.Intn(1000))
		a[i] = 100 + 20*r.NormFloat64()
	}
	tbl := engine.MustNewTable("t", engine.NewIntColumn("c1", c1), engine.NewIntColumn("c2", c2),
		engine.NewIntColumn("c3", c3), engine.NewIntColumn("h", h), engine.NewFloatColumn("a", a))
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2", "c3"}},
		[][]float64{equalPoints(10, 100), equalPoints(5, 50), equalPoints(4, 40)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample.NewStratified(tbl, []string{"h"}, 0.1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 15, Hi: 41}, {Col: "c2", Lo: 12, Hi: 33}, {Col: "c3", Lo: 7, Hi: 26}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands)*len(s.Strata) <= maxAccumulators {
		t.Fatalf("%d candidates × %d strata fit one pass; the test needs chunks", len(cands), len(s.Strata))
	}
	terms := make([]Term, len(cands))
	for i, pre := range cands {
		terms[i] = Term{Cube: c, Pre: pre}
	}
	ests, err := Estimates(s, q, terms, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i, pre := range cands {
		v, err := DiffVector(s, c, q, pre)
		if err != nil {
			t.Fatal(err)
		}
		want := aqp.SumOfValues(s, v, 0.95)
		if math.Float64bits(ests[i].Value) != math.Float64bits(want.Value) ||
			math.Float64bits(ests[i].HalfWidth) != math.Float64bits(want.HalfWidth) {
			t.Fatalf("%s: kernel %v ± %v, materialized %v ± %v", pre, ests[i].Value, ests[i].HalfWidth, want.Value, want.HalfWidth)
		}
	}
}
