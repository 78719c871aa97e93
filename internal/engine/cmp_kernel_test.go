package engine

import (
	"encoding/binary"
	"math"
	"testing"

	"aqppp/internal/stats"
)

// The oracle kernels below are the branchy row-at-a-time compare loops
// the branch-free kernels replaced, kept verbatim: the production
// kernels must select exactly the same bits for every value and bound.

func oracleCmpInt64(vals []int64, rlo, rhi float64, lo, hi int, out []uint64, and bool) {
	wi := 0
	for i := lo; i < hi; wi++ {
		end := i + 64
		if end > hi {
			end = hi
		}
		var w uint64
		// Ranging over the word's subslice keeps the inner loop free of
		// bounds checks; float64(v) matches the row-at-a-time semantics
		// exactly, including values beyond 2^53 that round on conversion.
		for b, v := range vals[i:end] {
			if f := float64(v); f >= rlo && f <= rhi {
				w |= 1 << uint(b)
			}
		}
		i = end
		if and {
			out[wi] &= w
		} else {
			out[wi] = w
		}
	}
}

func oracleCmpFloat64(vals []float64, rlo, rhi float64, lo, hi int, out []uint64, and bool) {
	wi := 0
	for i := lo; i < hi; wi++ {
		end := i + 64
		if end > hi {
			end = hi
		}
		var w uint64
		for b, v := range vals[i:end] {
			if v >= rlo && v <= rhi {
				w |= 1 << uint(b)
			}
		}
		i = end
		if and {
			out[wi] &= w
		} else {
			out[wi] = w
		}
	}
}

func oracleCmpCodes(codes []int32, ranks []int32, rlo, rhi float64, lo, hi int, out []uint64, and bool) {
	wi := 0
	for i := lo; i < hi; wi++ {
		end := i + 64
		if end > hi {
			end = hi
		}
		var w uint64
		for b, code := range codes[i:end] {
			if v := float64(ranks[code]); v >= rlo && v <= rhi {
				w |= 1 << uint(b)
			}
		}
		i = end
		if and {
			out[wi] &= w
		} else {
			out[wi] = w
		}
	}
}

// cmpKernelCase is one compare-kernel input: the same rows in all three
// column representations, so one call checks every kernel.
type cmpKernelCase struct {
	ints   []int64
	floats []float64
	codes  []int32
	ranks  []int32
}

// check runs every kernel and its oracle over rows [lo, hi) with the
// store and AND variants and requires identical output words. prefill
// seeds the output (garbage for stores, a live selection for ANDs); the
// output carries a sentinel word past the window that neither may touch.
func (c cmpKernelCase) check(t *testing.T, rlo, rhi float64, lo, hi int, prefill []uint64) {
	t.Helper()
	nw := (hi - lo + 63) / 64
	kernels := []struct {
		name        string
		got, oracle func(out []uint64, and bool)
	}{
		{"int64",
			func(out []uint64, and bool) { cmpInt64(c.ints, rlo, rhi, lo, hi, out, and) },
			func(out []uint64, and bool) { oracleCmpInt64(c.ints, rlo, rhi, lo, hi, out, and) }},
		{"float64",
			func(out []uint64, and bool) { cmpFloat64(c.floats, rlo, rhi, lo, hi, out, and) },
			func(out []uint64, and bool) { oracleCmpFloat64(c.floats, rlo, rhi, lo, hi, out, and) }},
		{"codes",
			func(out []uint64, and bool) { cmpCodes(c.codes, c.ranks, rlo, rhi, lo, hi, out, and) },
			func(out []uint64, and bool) { oracleCmpCodes(c.codes, c.ranks, rlo, rhi, lo, hi, out, and) }},
	}
	for _, k := range kernels {
		for _, and := range []bool{false, true} {
			got := make([]uint64, nw+1)
			want := make([]uint64, nw+1)
			for i := range got {
				got[i] = prefill[i%len(prefill)]
			}
			copy(want, got)
			k.got(got, and)
			k.oracle(want, and)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s kernel [%v, %v] rows [%d, %d) and=%v: word %d = %#x, oracle %#x",
						k.name, rlo, rhi, lo, hi, and, i, got[i], want[i])
				}
			}
			if rem := uint(hi-lo) & 63; !and && rem != 0 && got[nw-1]>>rem != 0 {
				t.Fatalf("%s kernel [%v, %v] rows [%d, %d): tail bits set", k.name, rlo, rhi, lo, hi)
			}
		}
	}
}

// adversarialInts are the int64 values where float64 conversion rounds,
// saturates or sits on an exactness boundary.
func adversarialInts() []int64 {
	vs := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		math.MaxInt64 - 511, math.MaxInt64 - 512, math.MaxInt64 - 513, math.MinInt64 + 1024,
		0, 1, -1, 2, -2}
	for _, d := range []int64{-2, -1, 0, 1, 2} {
		vs = append(vs, 1<<53+d, -(1<<53)+d, 1<<54+d, -(1<<54)+d)
	}
	return vs
}

// adversarialBounds are range ends that probe every special case of the
// integer-interval conversion: NaN, ±Inf, signed zeros, fractions,
// ±2^53 neighbours, ±2^63 and beyond.
func adversarialBounds() []float64 {
	bs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		0.5, -0.5, 1.5, -1.5, 2.999, 1e19, -1e19, 0x1p63, -0x1p63,
		math.Nextafter(0x1p63, 0), math.Nextafter(-0x1p63, 0),
		math.Nextafter(0x1p63, math.Inf(1)), math.Nextafter(-0x1p63, math.Inf(-1)),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, x := range []float64{0x1p53, -0x1p53, 0x1p54, -0x1p54} {
		bs = append(bs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)),
			math.Nextafter(x, math.Inf(-1)), x+2, x-2, x+0.5, x-0.5)
	}
	for _, v := range adversarialInts() {
		f := float64(v)
		bs = append(bs, f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)))
	}
	return bs
}

func TestCmpKernelEquivalenceAdversarial(t *testing.T) {
	r := stats.NewRNG(0xc3b)
	const n = 300
	pool := adversarialInts()
	fpool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		0.5, -0.5, 1, 0x1p53, -0x1p53, 0x1p63, 1e19, math.MaxFloat64}
	var c cmpKernelCase
	c.ranks = []int32{0, 1, 2, 3, 7, -1, math.MaxInt32, math.MinInt32, 1 << 20, 5}
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			c.ints = append(c.ints, pool[r.Intn(len(pool))])
		case 1:
			c.ints = append(c.ints, int64(r.Uint64()))
		case 2:
			c.ints = append(c.ints, int64(r.Intn(21))-10)
		default:
			// Random values near the 2^53 and 2^63 rounding regions.
			c.ints = append(c.ints, pool[r.Intn(len(pool))]+int64(r.Intn(4097))-2048)
		}
		switch r.Intn(3) {
		case 0:
			c.floats = append(c.floats, fpool[r.Intn(len(fpool))])
		case 1:
			c.floats = append(c.floats, float64(c.ints[i]))
		default:
			c.floats = append(c.floats, r.Float64()*20-10)
		}
		c.codes = append(c.codes, int32(r.Intn(len(c.ranks))))
	}
	bounds := adversarialBounds()
	for _, rk := range c.ranks {
		bounds = append(bounds, float64(rk), float64(rk)+0.5, float64(rk)-0.5)
	}
	windows := [][2]int{{0, n}, {0, 64}, {0, 1}, {64, 129}, {128, 300}, {5, 5 + 64}, {1, 299}}
	prefill := []uint64{^uint64(0), 0xdeadbeefcafef00d, 0, 0x5555555555555555}
	for _, rlo := range bounds {
		for _, rhi := range bounds {
			// Every pair, reversed ones included, over one window; a
			// rotating window keeps aligned, unaligned and tail shapes
			// all exercised without a cubic blow-up.
			w := windows[r.Intn(len(windows))]
			c.check(t, rlo, rhi, w[0], w[1], prefill)
		}
	}
	// Random bounds drawn from the values themselves and their float
	// neighbours, where a one-off interval end would show.
	for trial := 0; trial < 2000; trial++ {
		a := float64(c.ints[r.Intn(n)])
		b := float64(c.ints[r.Intn(n)])
		if r.Intn(2) == 0 {
			a = math.Nextafter(a, math.Inf(1))
		}
		if r.Intn(2) == 0 {
			b = math.Nextafter(b, math.Inf(-1))
		}
		w := windows[r.Intn(len(windows))]
		c.check(t, a, b, w[0], w[1], prefill)
	}
}

// TestIntBoundsExact checks the interval ends directly: l is the first
// value that passes the low bound, h the last that passes the high one.
func TestIntBoundsExact(t *testing.T) {
	for _, x := range adversarialBounds() {
		if l, ok := firstAtLeast(x); ok {
			if !(float64(l) >= x) || (l != math.MinInt64 && float64(l-1) >= x) {
				t.Errorf("firstAtLeast(%v) = %d, not the first value with float64(v) >= x", x, l)
			}
		} else if x == x && float64(int64(math.MaxInt64)) >= x {
			t.Errorf("firstAtLeast(%v) reported empty", x)
		}
		if h, ok := lastAtMost(x); ok {
			if !(float64(h) <= x) || (h != math.MaxInt64 && float64(h+1) <= x) {
				t.Errorf("lastAtMost(%v) = %d, not the last value with float64(v) <= x", x, h)
			}
		} else if x == x && float64(int64(math.MinInt64)) <= x {
			t.Errorf("lastAtMost(%v) reported empty", x)
		}
	}
}

// FuzzCmpKernel checks the branch-free compare kernels against the
// branchy oracle on arbitrary rows and bounds. raw is read as 8-byte
// little-endian words: each word is an int64 row, the float64 with the
// same bits, and a dictionary code into a rank table built from the
// words' low halves. off trims the window start so unaligned windows
// and tail words are covered.
func FuzzCmpKernel(f *testing.F) {
	f.Add([]byte{}, 0.0, 1.0, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<53+1), 0x1p53, 0x1p53, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, rlo, rhi float64, off uint8) {
		n := len(raw) / 8
		if n > 512 {
			n = 512
		}
		var c cmpKernelCase
		for i := 0; i < n; i++ {
			u := binary.LittleEndian.Uint64(raw[8*i:])
			c.ints = append(c.ints, int64(u))
			c.floats = append(c.floats, math.Float64frombits(u))
			c.ranks = append(c.ranks, int32(u))
		}
		for i := 0; i < n; i++ {
			c.codes = append(c.codes, int32(uint64(c.ints[i])>>32%uint64(n)))
		}
		lo := 0
		if n > 0 {
			lo = int(off) % n
		}
		c.check(t, rlo, rhi, lo, n, []uint64{^uint64(0), 0x0123456789abcdef})
	})
}
