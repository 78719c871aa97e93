package aqppp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"aqppp/internal/engine"
)

// TestResidentGolden pins resident answers to fixed bits: exact scalars
// and GROUP BY rows (values and first-seen order), closed-form answers
// over a COUNT cube and min/max index (value, half-width and the
// identified pre), approximate GROUP BY order, bootstrap at the fixed
// seed, contract answers with their strategy, and QueryStruct. Every
// line renders floats as their IEEE-754 bits, so any change to how a
// resident table answers — a reassociated sum, a re-sorted group, a
// different interval — fails here.
func TestResidentGolden(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(20000, 77)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.05, CellBudget: 40, Seed: 11,
		WithCountCube: true, WithMinMax: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	res := func(r Result) string {
		return fmt.Sprintf("%s±%s@%s pre=%v:%s", bits(r.Value), bits(r.HalfWidth), bits(r.Confidence), r.UsedPrecomputed, r.Pre)
	}
	var got []string
	add := func(label string, s string) { got = append(got, label+" "+s) }

	const where = " FROM demo WHERE k BETWEEN 37 AND 311"
	for _, agg := range []string{"SUM(v)", "COUNT(*)", "AVG(v)", "MIN(v)", "MAX(v)", "VAR(v)"} {
		r, err := db.Exact("SELECT " + agg + where)
		if err != nil {
			t.Fatal(err)
		}
		add("exact "+agg, bits(r.Value))
	}
	for _, agg := range []string{"SUM(v)", "AVG(v)"} {
		r, err := db.Exact("SELECT " + agg + " FROM demo WHERE k BETWEEN 1 AND 6 GROUP BY k")
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, g := range r.Groups {
			rows = append(rows, fmt.Sprintf("%s=%s/%d", g.Key, bits(g.Value), g.Rows))
		}
		add("exact-groups "+agg, strings.Join(rows, ","))
	}
	for _, agg := range []string{"SUM(v)", "COUNT(*)", "AVG(v)", "MIN(v)", "MAX(v)"} {
		r, err := prep.Query("SELECT " + agg + where)
		if err != nil {
			t.Fatal(err)
		}
		add("approx "+agg, res(r))
	}
	for _, agg := range []string{"SUM(v)", "COUNT(*)", "AVG(v)"} {
		r, err := prep.Query("SELECT " + agg + " FROM demo WHERE k BETWEEN 1 AND 40 GROUP BY tier")
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, g := range r.Groups {
			rows = append(rows, g.Key+"="+res(g.Result))
		}
		add("approx-groups "+agg, strings.Join(rows, ","))
	}
	r, err := prep.Query("SELECT SUM(v) FROM demo WHERE k BETWEEN 1 AND 9 GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, g := range r.Groups {
		keys = append(keys, g.Key)
	}
	// Every group the sample saw answers, so the list is long; its
	// length and first keys pin the first-seen order.
	add(fmt.Sprintf("approx-group-order n=%d", len(keys)), strings.Join(keys[:16], ","))
	for _, agg := range []string{"SUM(v)", "COUNT(*)"} {
		r, err := prep.QueryBootstrap("SELECT "+agg+where, 150)
		if err != nil {
			t.Fatal(err)
		}
		add("bootstrap "+agg, res(r))
	}
	for _, c := range []Contract{{MaxRelError: 0.3}, {MaxRelError: 0.05}, {MaxRelError: 0.001, AllowExact: true}} {
		r, err := prep.QueryWithContract(context.Background(), "SELECT SUM(v)"+where, c)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("contract %v", c.MaxRelError), fmt.Sprintf("%s %v %s", r.Strategy, r.Escalated, res(r.Result)))
	}
	sr, err := prep.QueryStruct(engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "k", Lo: 30, Hi: 90}}})
	if err != nil {
		t.Fatal(err)
	}
	add("struct SUM(v)", res(sr))

	want := residentGolden
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// residentGolden holds the expected lines. They were recorded when the
// resident path still called the table and processor directly, so a
// mismatch is a changed answer, not a stale golden: fix the code.
var residentGolden = []string{
	"exact SUM(v) 412c04ace4b1aa24",
	"exact COUNT(*) 40c5388000000000",
	"exact AVG(v) 4055200effcaf7ee",
	"exact MIN(v) 404094b14d98ba2a",
	"exact MAX(v) 406073f6774da812",
	"exact VAR(v) 40741b0607961490",
	"exact-groups SUM(v) 2=40a13b47350736d2/44,3=409e0484e3e90177/37,4=409ae0c489fc265e/34,1=409a96f4ea1ebbeb/34,6=409bd619a3014fc6/34,5=409b660515d73015/34",
	"exact-groups AVG(v) 2=4049106792f33877/44,3=4049f6121138389e/37,4=40494c0445a205fe/34,1=4049068c27a474a1/34,6=404a32eaf3c4ffc9/34,5=4049c96e32ac697d/34",
	"approx SUM(v) 412be421082cc6f0±40c9f58ea1e30cdd@3fee666666666666 pre=true:pre[(0:15]]",
	"approx COUNT(*) 40c5120000000000±4062fa04e3724f96@3fee666666666666 pre=true:pre[(0:15]]",
	"approx AVG(v) 40552df1c944d679±3fd7d797e4ab33f3@3fee666666666666 pre=true:pre[(0:15]]",
	"approx MIN(v) 404094b14d98ba2a±0000000000000000@3ff0000000000000 pre=false:φ",
	"approx MAX(v) 406073f6774da812±0000000000000000@3ff0000000000000 pre=false:φ",
	"approx-groups SUM(v) silver=40efe353fea94442±40c443ec6917a512@3fee666666666666 pre=true:pre[(-1:0]],gold=40d723daa56c14b7±40c369a4792b1e4e@3fee666666666666 pre=false:φ",
	"approx-groups COUNT(*) silver=4092b00000000001±4067b6fa2338b598@3fee666666666666 pre=true:pre[(-1:0]],gold=407b800000000002±4066ba786f379f11@3fee666666666666 pre=false:φ",
	"approx-groups AVG(v) silver=404b4d56786ead2a±3ff6eaf9b203d17a@3fee666666666666 pre=true:pre[(-1:0]],gold=404aed3647791cc0±400eff4c69de484b@3fee666666666666 pre=false:φ",
	"approx-group-order n=429 485,35,193,275,382,196,256,192,93,151,131,83,236,418,239,158",
	"bootstrap SUM(v) 412be421082cc6f0±40ca102affb20780@3fee666666666666 pre=true:pre[(0:15]]",
	"bootstrap COUNT(*) 40c5120000000000±4061d80000000000@3fee666666666666 pre=true:pre[(0:15]]",
	"contract 0.3 approx false 412ae866c0d92bda±40df3b17c730e4af@3fee666666666666 pre=true:pre[(0:14]]",
	"contract 0.05 approx false 412b215e3d0e6a0a±40db61fc0b60ac86@3fee666666666666 pre=true:pre[(0:14]]",
	"contract 0.001 exact false 412c04ace4b1aa24±0000000000000000@3ff0000000000000 pre=false:φ",
	"struct SUM(v) 41026bdf538d4672±40cf75cc72ecf2c1@3fee666666666666 pre=true:pre[(0:2]]",
}
