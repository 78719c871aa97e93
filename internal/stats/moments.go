package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs (dividing by n), or 0 for
// slices with fewer than one element. AQP variance formulas in the paper
// (Example 1) use the population form over the sample.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// SampleVariance returns the unbiased sample variance (dividing by n-1),
// or 0 when n < 2.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Covariance returns the population covariance of xs and ys. The two
// slices must have the same length; it panics otherwise.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n)
}

// Correlation returns the Pearson correlation coefficient of xs and ys, or
// 0 when either has zero variance.
func Correlation(xs, ys []float64) float64 {
	vx, vy := Variance(xs), Variance(ys)
	if vx == 0 || vy == 0 {
		return 0
	}
	return Covariance(xs, ys) / math.Sqrt(vx*vy)
}

// Welford is the streaming count/sum/mean/M2 core of Moments (Welford's
// algorithm). It is split out so the AQP++ answer kernel can keep one
// accumulator per candidate and still feed every value through the same
// update SumOfValues uses, which makes the two bit-identical. The zero
// value is ready to use.
type Welford struct {
	n    int64
	sum  float64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.sum += x
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Sum returns the running sum.
func (w *Welford) Sum() float64 { return w.sum }

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the running unbiased variance (n-1 denominator).
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Moments is a Welford accumulator that also tracks the smallest and
// largest observation. The zero value is ready to use.
type Moments struct {
	Welford
	min float64
	max float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.Welford.Add(x)
}

// Min returns the smallest observation, or 0 before any observation.
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation, or 0 before any observation.
func (m *Moments) Max() float64 { return m.max }

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.sum += o.sum
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n = n
}

// Median returns the median of xs without modifying it. It returns 0 for
// an empty slice. For even lengths it returns the mean of the two middle
// order statistics.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sortFloat64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	// Equal neighbours need no interpolation, and interpolating them
	// can land an ulp off the shared value.
	if lo == hi || ExactEqual(cp[lo], cp[hi]) {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// sortFloat64s is an in-place introsort-free quicksort specialization used
// to avoid pulling the sort package's interface machinery into hot loops.
func sortFloat64s(xs []float64) {
	if len(xs) < 2 {
		return
	}
	// Standard three-way quicksort with insertion-sort leaves.
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		for hi-lo > 12 {
			mid := lo + (hi-lo)/2
			// median-of-three pivot
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
			if xs[hi] < xs[lo] {
				xs[hi], xs[lo] = xs[lo], xs[hi]
			}
			if xs[hi] < xs[mid] {
				xs[hi], xs[mid] = xs[mid], xs[hi]
			}
			p := xs[mid]
			i, j := lo, hi
			for i <= j {
				for xs[i] < p {
					i++
				}
				for xs[j] > p {
					j--
				}
				if i <= j {
					xs[i], xs[j] = xs[j], xs[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				rec(lo, j)
				lo = i
			} else {
				rec(i, hi)
				hi = j
			}
		}
		for i := lo + 1; i <= hi; i++ {
			for j := i; j > lo && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
	}
	rec(0, len(xs)-1)
}
