package exec

import (
	"strings"
	"testing"

	"aqppp/internal/shard"
)

// TestCacheKeyCanonical pins the property the response cache depends
// on: statements that compile to the same work share one key, and
// statements that answer differently never do.
func TestCacheKeyCanonical(t *testing.T) {
	tbl := execTable(500)
	src := mapSource{"t": tbl}

	key := func(stmt string) string {
		t.Helper()
		p, err := PlanExactStatement(src, stmt)
		if err != nil {
			t.Fatalf("plan %q: %v", stmt, err)
		}
		return p.CacheKey()
	}

	base := key("SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50 AND v BETWEEN 0 AND 100")

	// Whitespace, keyword case, and WHERE-conjunct order are all
	// surface syntax; the compiled plan — and the key — must not move.
	equivalents := []string{
		"select sum(v) from t where k between 10 and 50 and v between 0 and 100",
		"SELECT  SUM(v)  FROM t  WHERE k BETWEEN 10 AND 50 AND v BETWEEN 0 AND 100",
		"SELECT SUM(v) FROM t WHERE v BETWEEN 0 AND 100 AND k BETWEEN 10 AND 50",
	}
	for _, stmt := range equivalents {
		if got := key(stmt); got != base {
			t.Errorf("key(%q) = %q, want %q", stmt, got, base)
		}
	}

	// Anything that changes the answer must change the key.
	distinct := []string{
		"SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 51 AND v BETWEEN 0 AND 100",
		"SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50",
		"SELECT COUNT(*) FROM t WHERE k BETWEEN 10 AND 50 AND v BETWEEN 0 AND 100",
		"SELECT SUM(v) FROM t",
	}
	seen := map[string]string{base: "base"}
	for _, stmt := range distinct {
		got := key(stmt)
		if prev, dup := seen[got]; dup {
			t.Errorf("key collision: %q and %q share %q", stmt, prev, got)
		}
		seen[got] = stmt
	}
}

// TestCacheKeyDiscriminatesAnswerPath verifies the kind, the group-by
// columns, and the bootstrap parameters are all part of the key: an
// exact scan, a closed-form approximation, and a bootstrap interval
// answer the same SQL with different results.
func TestCacheKeyDiscriminatesAnswerPath(t *testing.T) {
	tbl := execTable(500)
	proc := execProcessor(t, tbl)
	const stmt = "SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50"

	exact, err := PlanExactStatement(mapSource{"t": tbl}, stmt)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := PlanQueryStatement(shard.Resident(tbl, proc), tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	boot100, err := PlanBootstrapStatement(shard.Resident(tbl, proc), tbl, stmt, 100, 0xb007)
	if err != nil {
		t.Fatal(err)
	}
	boot200, err := PlanBootstrapStatement(shard.Resident(tbl, proc), tbl, stmt, 200, 0xb007)
	if err != nil {
		t.Fatal(err)
	}
	bootSeed, err := PlanBootstrapStatement(shard.Resident(tbl, proc), tbl, stmt, 100, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for name, p := range map[string]*Plan{
		"exact": exact, "approx": approx,
		"boot100": boot100, "boot200": boot200, "bootSeed": bootSeed,
	} {
		k := p.CacheKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision: %s and %s share %q", name, prev, k)
		}
		keys[k] = name
	}

	// Same plan twice → same key (determinism).
	if boot100.CacheKey() != boot100.CacheKey() {
		t.Error("CacheKey is not deterministic")
	}

	// Group-by columns appear in the key.
	g, err := PlanExactStatement(mapSource{"t": tbl}, "SELECT SUM(v) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.CacheKey(), "by:k") {
		t.Errorf("group-by key %q missing by:k", g.CacheKey())
	}
}
