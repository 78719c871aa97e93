package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*scale
}

func TestMeanVarianceHandComputed(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := SampleVariance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %v, want 32/7", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Sum(nil) != 0 {
		t.Error("empty slice should give zeros")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("singleton variance should be 0")
	}
	if SampleVariance([]float64{3}) != 0 {
		t.Error("singleton sample variance should be 0")
	}
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v, want -1", got)
	}
	if got := Covariance(xs, ys); !almostEq(got, 4, 1e-12) {
		t.Errorf("Covariance = %v, want 4", got)
	}
	flat := []float64{5, 5, 5, 5, 5}
	if got := Correlation(xs, flat); got != 0 {
		t.Errorf("correlation with constant = %v, want 0", got)
	}
}

func TestCovarianceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestMomentsMatchesBatch(t *testing.T) {
	r := NewRNG(77)
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		m.Add(xs[i])
	}
	if !almostEq(m.Mean(), Mean(xs), 1e-9) {
		t.Errorf("streaming mean %v != batch %v", m.Mean(), Mean(xs))
	}
	if !almostEq(m.Variance(), Variance(xs), 1e-9) {
		t.Errorf("streaming variance %v != batch %v", m.Variance(), Variance(xs))
	}
	if m.Count() != 5000 {
		t.Errorf("count = %d", m.Count())
	}
}

func TestMomentsMergeEqualsSequential(t *testing.T) {
	f := func(seed uint32, split uint8) bool {
		r := NewRNG(uint64(seed))
		n := 100
		k := int(split)%n + 1
		var whole, a, b Moments
		for i := 0; i < n; i++ {
			x := r.NormFloat64()
			whole.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return almostEq(a.Mean(), whole.Mean(), 1e-9) &&
			almostEq(a.Variance(), whole.Variance(), 1e-9) &&
			a.Count() == whole.Count() &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3}
	if got := Median(xs); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
	// xs must not be mutated.
	if xs[0] != 9 {
		t.Error("Median mutated its input")
	}
	odd := []float64{5, 1, 3}
	if got := Median(odd); got != 3 {
		t.Errorf("odd Median = %v, want 3", got)
	}
	if got := Quantile(odd, 0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(odd, 1); got != 5 {
		t.Errorf("Quantile(1) = %v, want 5", got)
	}
}

// TestQuantileEqualNeighbours: between two equal order statistics the
// quantile is that value exactly. Linear interpolation alone gives
// 7.7·0.975 + 7.7·0.025 = 7.699999999999999 here.
func TestQuantileEqualNeighbours(t *testing.T) {
	for _, v := range []float64{7.7, 123456.789, 2.500000001e8} {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = v
		}
		xs[0], xs[199] = v-1, v+1
		for _, q := range []float64{0.025, 0.3, 0.7, 0.975} {
			if got := Quantile(xs, q); got != v {
				t.Errorf("Quantile(%v-plateau, %v) = %v, want %v", v, q, got, v)
			}
		}
	}
}

func TestQuantileSortedProperty(t *testing.T) {
	r := NewRNG(13)
	f := func(qRaw uint16) bool {
		q := float64(qRaw) / math.MaxUint16
		xs := make([]float64, 37)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		v := Quantile(xs, q)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortFloat64s(t *testing.T) {
	r := NewRNG(21)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(500) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(r.Float64() * 50)
		}
		sortFloat64s(xs)
		for i := 1; i < n; i++ {
			if xs[i-1] > xs[i] {
				t.Fatalf("unsorted at %d (trial %d)", i, trial)
			}
		}
	}
}
