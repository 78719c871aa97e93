package main

import (
	"fmt"

	"aqppp/internal/stats"
)

// Request classes.
const (
	classApprox      = "approx"      // POST /v1/approx, closed form
	classBootstrap   = "bootstrap"   // POST /v1/approx with resamples
	classExact       = "exact"       // POST /v1/query
	classContract    = "contract"    // POST /v1/contract
	classProgressive = "progressive" // POST /v1/progressive (SSE)
	classPrepare     = "prepare"     // blue/green re-prepare: POST /v1/prepare + DELETE
)

// Workload names.
const (
	wlDrilldown  = "drilldown"
	wlAnalystMix = "analyst-mix"
	wlFleet      = "fleet"
)

var workloadNames = []string{wlDrilldown, wlAnalystMix, wlFleet}

// kind is a (handle, aggregate) pair.
type kind struct{ handle, agg string }

// approxKinds is the stated per-handle weighting of closed-form
// statements: d2 70%, d1 30%, AVG 20% and on d2 only. Sorted by
// latency the modes are d1 SUM/COUNT (30%), d2 SUM/COUNT (50%) and d2
// AVG (20%), so the median lands inside the d2 SUM/COUNT mode and the
// p90 inside the AVG mode rather than between two modes.
var approxKinds = []kind{
	{handle2D, "SUM"}, {handle1D, "SUM"}, {handle2D, "COUNT"}, {handle2D, "AVG"}, {handle2D, "SUM"},
	{handle1D, "COUNT"}, {handle2D, "SUM"}, {handle1D, "SUM"}, {handle2D, "COUNT"}, {handle2D, "AVG"},
}

// streamKinds serve the classes whose estimators take SUM and COUNT
// only (progressive, bootstrap).
var streamKinds = []kind{{handle2D, "SUM"}, {handle1D, "COUNT"}, {handle1D, "SUM"}, {handle2D, "COUNT"}}

// Analyst-mix schedule: every block of mixBlock requests holds these
// classes in a seeded order, and every prepareEvery-th request is the
// blue/green re-prepare instead.
const (
	mixBlock     = 40
	prepareEvery = 400
	poolSize     = 1000
	poolZipf     = 1.1
	resamples    = 50
	// progressiveRounds caps a stream the way an analyst stops watching
	// it: uncapped, a narrow range refines for up to 64 rounds, and a
	// few such streams decide a whole run's throughput.
	progressiveRounds = 4
)

var mixCounts = []struct {
	class string
	rel   float64
	n     int
}{
	{classApprox, 0, 30},
	{classExact, 0, 5},
	// A 1% contract the ladder cannot meet escalates through a
	// full-sample bootstrap before it is refused, and which statements
	// do so varies by seed; more of them made that class most of the
	// run's time and its count the run's throughput.
	{classContract, 0.01, 1},
	{classContract, 0.05, 2},
	{classProgressive, 0.05, 1},
	{classBootstrap, 0, 1},
}

// Fleet schedule: every block of fleetBlock requests is fleetApprox
// closed-form answers and the rest exact scans.
const (
	fleetBlock  = 14
	fleetApprox = 10
)

// Item is one request of a stream.
type Item struct {
	Class string
	Stmt  Stmt
	// Pool is the Zipf pool index of a repeated analyst-mix statement
	// (-1 when the statement is fresh).
	Pool int
	// Rel is the contract's relative error bound.
	Rel float64
	// Seed drives a progressive stream's row permutation.
	Seed uint64
	// Prepare is the ordinal of a re-prepare; it picks the handle.
	Prepare int
}

// Workload turns a seed into a deterministic request stream: item i
// depends on (seed, i) only, so the stream is the same whichever client
// draws each item.
type Workload struct {
	name string
	seed uint64
	gen  *Gen
	// Analyst-mix state, fixed at construction from the seed.
	pool  []Stmt
	zipf  *stats.Zipf
	order []int // mixBlock slots → index into mixCounts
}

func newWorkload(name string, seed uint64, g *Gen) (*Workload, error) {
	w := &Workload{name: name, seed: seed, gen: g}
	switch name {
	case wlDrilldown, wlFleet:
	case wlAnalystMix:
		w.pool = make([]Stmt, poolSize)
		for j := range w.pool {
			k := approxKinds[j%len(approxKinds)]
			w.pool[j] = g.Window(streamRNG(seed, "pool", j), k.handle, k.agg)
		}
		w.zipf = stats.NewZipf(poolSize, poolZipf)
		for ci, c := range mixCounts {
			for k := 0; k < c.n; k++ {
				w.order = append(w.order, ci)
			}
		}
		if len(w.order) != mixBlock {
			return nil, fmt.Errorf("analyst-mix block holds %d requests, want %d", len(w.order), mixBlock)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// Item returns request i of the stream named by salt ("run" for the
// measured stream, "warm" for warm-up).
func (w *Workload) Item(salt string, i int) Item {
	r := streamRNG(w.seed, salt, i)
	switch w.name {
	case wlDrilldown:
		k := approxKinds[i%len(approxKinds)]
		return Item{Class: classApprox, Stmt: w.gen.Window(r, k.handle, k.agg), Pool: -1}
	case wlFleet:
		pos := i % fleetBlock
		if pos < fleetApprox {
			k := approxKinds[pos]
			return Item{Class: classApprox, Stmt: w.gen.Window(r, k.handle, k.agg), Pool: -1}
		}
		k := approxKinds[(i/fleetBlock+pos)%len(approxKinds)]
		return Item{Class: classExact, Stmt: w.gen.Window(r, k.handle, k.agg), Pool: -1}
	}
	// analyst-mix
	if i%prepareEvery == prepareEvery-1 {
		return Item{Class: classPrepare, Prepare: i / prepareEvery, Pool: -1}
	}
	block := i / mixBlock
	slot := blockOrder(w.seed, salt, block, w.order)[i%mixBlock]
	c := mixCounts[slot]
	it := Item{Class: c.class, Rel: c.rel, Pool: -1}
	switch c.class {
	case classApprox:
		it.Pool = w.zipf.Draw(r) - 1
		it.Stmt = w.pool[it.Pool]
	case classProgressive, classBootstrap:
		k := streamKinds[i%len(streamKinds)]
		it.Stmt = w.gen.Window(r, k.handle, k.agg)
		it.Seed = r.Uint64()
	default:
		k := approxKinds[i%len(approxKinds)]
		it.Stmt = w.gen.Window(r, k.handle, k.agg)
	}
	return it
}

// blockOrder is the seeded shuffle of one analyst-mix block.
func blockOrder(seed uint64, salt string, block int, order []int) []int {
	out := append([]int(nil), order...)
	r := streamRNG(seed, salt+"/block", block)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// accuracySeed fixes the accuracy set: it does not follow --seed, so
// the accuracy metrics repeat exactly from run to run.
const (
	accuracySeed = 0xacc
	accuracySize = 200
)

// accuracySet is the fixed set of closed-form statements the interval
// width and coverage are measured on.
func accuracySet(g *Gen) []Stmt {
	out := make([]Stmt, accuracySize)
	for j := range out {
		k := approxKinds[j%len(approxKinds)]
		out[j] = g.Window(streamRNG(accuracySeed, "accuracy", j), k.handle, k.agg)
	}
	return out
}
