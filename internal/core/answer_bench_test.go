package core

import (
	"fmt"
	"math"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
)

// The BenchmarkAnswer* family times Processor.Answer, the closed-form
// AQP++ answer path (identification on the subsample, the diff estimate
// and φ guard on the full sample, the AVG residual), for SUM, COUNT and
// AVG over 1-D and 2-D cubes and the three sample kinds. The fixture is
// a 1,048,576-row table with a 1% sample (10,486 rows for uniform and
// measure-biased), equal-partition SUM and COUNT cubes (50 points on
// c1; 25 × 20 on c1, c2) and the 1/4^d identification subsample with
// its 256-row floor. Baselines live in BENCH_answer.json.

var benchProcs = map[string]*Processor{}

var benchTbl *engine.Table

// benchProcessor builds (once per process) the fixture processor for a
// sample kind and cube dimensionality.
func benchProcessor(b *testing.B, kind sample.Kind, d int) *Processor {
	b.Helper()
	key := fmt.Sprint(kind, d)
	if p := benchProcs[key]; p != nil {
		return p
	}
	if benchTbl == nil {
		benchTbl = testTable(1<<20, 11)
	}
	var s *sample.Sample
	var err error
	switch kind {
	case sample.Uniform:
		s, err = sample.NewUniform(benchTbl, 0.01, 12)
	case sample.MeasureBiased:
		s, err = sample.NewMeasureBiased(benchTbl, "a", 0.01, 12)
	default:
		s, err = sample.NewStratified(benchTbl, []string{"g"}, 0.01, 100, 12)
	}
	if err != nil {
		b.Fatal(err)
	}
	dims := []string{"c1", "c2"}[:d]
	points := [][]float64{equalPoints(50, 100), equalPoints(20, 40)}[:d]
	if d == 2 {
		points[0] = equalPoints(25, 100)
	}
	c, err := cube.Build(benchTbl, cube.Template{Agg: "a", Dims: dims}, points)
	if err != nil {
		b.Fatal(err)
	}
	cc, err := cube.Build(benchTbl, cube.Template{Dims: dims}, points)
	if err != nil {
		b.Fatal(err)
	}
	rate := math.Max(1/math.Pow(4, float64(d)), 256/float64(s.Size()))
	p := &Processor{Sample: s, Sub: s.Subsample(rate, 13), Cube: c, CountCube: cc, Confidence: 0.95}
	benchProcs[key] = p
	return p
}

// equalPoints returns k equally spaced partition points over 1..dom.
func equalPoints(k, dom int) []float64 {
	out := make([]float64, k)
	for j := range out {
		out[j] = float64((j + 1) * dom / k)
	}
	return out
}

func benchAnswer(b *testing.B, f engine.AggFunc, d int, kind sample.Kind) {
	p := benchProcessor(b, kind, d)
	q := engine.Query{Func: f, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 13, Hi: 67}, {Col: "c2", Lo: 5, Hi: 31}}[:d]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnswerSum1DUniform(b *testing.B) {
	benchAnswer(b, engine.Sum, 1, sample.Uniform)
}

func BenchmarkAnswerSum1DStratified(b *testing.B) {
	benchAnswer(b, engine.Sum, 1, sample.Stratified)
}

func BenchmarkAnswerSum1DBiased(b *testing.B) {
	benchAnswer(b, engine.Sum, 1, sample.MeasureBiased)
}

func BenchmarkAnswerSum2DUniform(b *testing.B) {
	benchAnswer(b, engine.Sum, 2, sample.Uniform)
}

func BenchmarkAnswerSum2DStratified(b *testing.B) {
	benchAnswer(b, engine.Sum, 2, sample.Stratified)
}

func BenchmarkAnswerSum2DBiased(b *testing.B) {
	benchAnswer(b, engine.Sum, 2, sample.MeasureBiased)
}

func BenchmarkAnswerCount1DUniform(b *testing.B) {
	benchAnswer(b, engine.Count, 1, sample.Uniform)
}

func BenchmarkAnswerCount1DStratified(b *testing.B) {
	benchAnswer(b, engine.Count, 1, sample.Stratified)
}

func BenchmarkAnswerCount1DBiased(b *testing.B) {
	benchAnswer(b, engine.Count, 1, sample.MeasureBiased)
}

func BenchmarkAnswerCount2DUniform(b *testing.B) {
	benchAnswer(b, engine.Count, 2, sample.Uniform)
}

func BenchmarkAnswerCount2DStratified(b *testing.B) {
	benchAnswer(b, engine.Count, 2, sample.Stratified)
}

func BenchmarkAnswerCount2DBiased(b *testing.B) {
	benchAnswer(b, engine.Count, 2, sample.MeasureBiased)
}

func BenchmarkAnswerAvg1DUniform(b *testing.B) {
	benchAnswer(b, engine.Avg, 1, sample.Uniform)
}

func BenchmarkAnswerAvg1DStratified(b *testing.B) {
	benchAnswer(b, engine.Avg, 1, sample.Stratified)
}

func BenchmarkAnswerAvg1DBiased(b *testing.B) {
	benchAnswer(b, engine.Avg, 1, sample.MeasureBiased)
}

func BenchmarkAnswerAvg2DUniform(b *testing.B) {
	benchAnswer(b, engine.Avg, 2, sample.Uniform)
}

func BenchmarkAnswerAvg2DStratified(b *testing.B) {
	benchAnswer(b, engine.Avg, 2, sample.Stratified)
}

func BenchmarkAnswerAvg2DBiased(b *testing.B) {
	benchAnswer(b, engine.Avg, 2, sample.MeasureBiased)
}
