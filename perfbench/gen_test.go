package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"aqppp/internal/dataset"
)

// testGen builds a generator over a small table (the stream logic does
// not depend on the row count).
var testGen = sync.OnceValue(func() *Gen {
	g, err := newGen(dataset.TPCDSkew(dataset.TPCDConfig{Rows: 1 << 16, Seed: dataSeed}))
	if err != nil {
		panic(err)
	}
	return g
})

func streamBytes(t *testing.T, wl string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(wl, seed, testGen())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		it := w.Item("run", i)
		b.WriteString(it.Class + "|" + it.Stmt.SQL + "\n")
	}
	return b.Bytes()
}

// TestStreamDeterministic: one seed gives a byte-identical stream and
// another seed changes it, for every workload.
func TestStreamDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		a := streamBytes(t, wl, 7, 500)
		b := streamBytes(t, wl, 7, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", wl)
		}
		if c := streamBytes(t, wl, 8, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl)
		}
	}
}

// TestStreamShape checks the drilldown stream stays in the selectivity
// band and almost never repeats a statement (the date template has a
// finite set of day windows, so rare repeats are expected).
func TestStreamShape(t *testing.T) {
	w, err := newWorkload(wlDrilldown, 3, testGen())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	inBand, repeats := 0, 0
	const n = 4000
	for i := 0; i < n; i++ {
		it := w.Item("run", i)
		if seen[it.Stmt.SQL] {
			repeats++
		}
		seen[it.Stmt.SQL] = true
		if it.Stmt.Sel >= minSel && it.Stmt.Sel <= maxSel {
			inBand++
		}
		if !strings.HasPrefix(it.Stmt.SQL, "SELECT ") {
			t.Fatalf("malformed statement %q", it.Stmt.SQL)
		}
	}
	if repeats > n/200 {
		t.Errorf("%d of %d statements repeat", repeats, n)
	}
	if inBand < n*99/100 {
		t.Errorf("%d of %d statements inside the selectivity band", inBand, n)
	}
}
