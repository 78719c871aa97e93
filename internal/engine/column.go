// Package engine is an in-memory columnar OLAP engine: typed columns,
// tables, vectorized range predicates, exact aggregation (with group-by),
// and binary/CSV persistence.
//
// It plays the role of the commercial column-store ("DBX") that the AQP++
// paper runs on: the AQP++ layers above only need filtered scans, exact
// aggregates for cube construction and ground truth, and a place to store
// samples as tables.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ColType enumerates the supported column types.
type ColType uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 ColType = iota
	// Float64 is a 64-bit float column.
	Float64
	// String is a dictionary-encoded string column. Its ordinal order is
	// lexicographic, matching the paper's footnote 3 ("if C does not have
	// a natural ordering, we use an alphabetical ordering").
	String
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column is a single typed column. Exactly one of the data slices is
// populated, according to Type. Strings are dictionary-encoded: Codes
// holds per-row dictionary indices into Dict.
type Column struct {
	Name string
	Type ColType

	Ints   []int64
	Floats []float64
	Codes  []int32
	Dict   []string

	dictIndex map[string]int32

	// src, when non-nil, serves the column's rows block-at-a-time from a
	// Backend (see backend.go) and the data slices above stay empty;
	// srcRows is then the row count. Source-backed columns are immutable.
	src     ColumnSource
	srcRows int

	// domLo/domHi, when hasDom is set, override OrdinalDomain with an
	// externally supplied bound: a schema-only column (see
	// NewSchemaColumn) holds no rows but must still answer plan-time
	// domain queries for data that lives elsewhere.
	domLo, domHi float64
	hasDom       bool

	// The rank table (code → lexicographic rank) and zone map (per-block
	// min/max) are derived caches, built lazily on first use and rebuilt
	// after appends. Both are published through atomic pointers with
	// lazyMu serializing builds, so concurrent readers (Filter/Execute on
	// a shared table) are race-free even when the caches are cold.
	// Appends still require external synchronization against readers:
	// only the caches are concurrency-safe, not the data slices.
	lazyMu sync.Mutex
	rankP  atomic.Pointer[rankTable]
	zoneP  atomic.Pointer[zoneMap]
}

// rankTable snapshots the code→rank mapping for one dictionary length;
// a stale snapshot (dictionary grew) is detected by dictLen and rebuilt.
type rankTable struct {
	dictLen int
	rank    []int32
}

// NewIntColumn creates an Int64 column with the given values.
func NewIntColumn(name string, vals []int64) *Column {
	return &Column{Name: name, Type: Int64, Ints: vals}
}

// NewSchemaColumn creates a zero-row column that still answers
// plan-time questions — type, dictionary ranks, and OrdinalDomain —
// for data that lives elsewhere (a remote replica fleet). lo/hi is the
// inclusive ordinal domain of the remote data; dict, for String
// columns, must be the remote dictionary verbatim so literal ranks
// resolve identically on both sides.
func NewSchemaColumn(name string, typ ColType, dict []string, lo, hi float64) *Column {
	return &Column{Name: name, Type: typ, Dict: dict, domLo: lo, domHi: hi, hasDom: true}
}

// NewFloatColumn creates a Float64 column with the given values.
func NewFloatColumn(name string, vals []float64) *Column {
	return &Column{Name: name, Type: Float64, Floats: vals}
}

// NewStringColumn creates a dictionary-encoded String column from raw
// values.
func NewStringColumn(name string, vals []string) *Column {
	c := &Column{Name: name, Type: String, dictIndex: make(map[string]int32)}
	for _, v := range vals {
		c.appendString(v)
	}
	return c
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.src != nil {
		return c.srcRows
	}
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	default:
		return len(c.Codes)
	}
}

func (c *Column) appendString(v string) {
	if c.dictIndex == nil {
		c.dictIndex = make(map[string]int32, len(c.Dict))
		for i, s := range c.Dict {
			c.dictIndex[s] = int32(i)
		}
	}
	code, ok := c.dictIndex[v]
	if !ok {
		code = int32(len(c.Dict))
		c.Dict = append(c.Dict, v)
		c.dictIndex[v] = code
		c.rankP.Store(nil) // invalidate rank cache
	}
	c.Codes = append(c.Codes, code)
}

// ranks returns the code→lexicographic-rank table, rebuilding it if the
// dictionary changed since the last call. Concurrent callers are safe:
// the build is serialized under lazyMu and published atomically, so two
// goroutines filtering a cold shared column race neither on the build
// nor on the publication.
func (c *Column) ranks() []int32 {
	if rt := c.rankP.Load(); rt != nil && rt.dictLen == len(c.Dict) {
		return rt.rank
	}
	c.lazyMu.Lock()
	defer c.lazyMu.Unlock()
	if rt := c.rankP.Load(); rt != nil && rt.dictLen == len(c.Dict) {
		return rt.rank
	}
	order := make([]int32, len(c.Dict))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.Dict[order[i]] < c.Dict[order[j]] })
	rank := make([]int32, len(c.Dict))
	for r, code := range order {
		rank[code] = int32(r)
	}
	c.rankP.Store(&rankTable{dictLen: len(c.Dict), rank: rank})
	return rank
}

// warmOrdinals forces the lazy rank cache so that subsequent Ordinal
// calls hit the published snapshot. Lazy builds are race-safe either
// way; warming before fanning out just keeps workers from serializing
// on the build mutex.
func (c *Column) warmOrdinals() {
	if c.Type == String {
		c.ranks()
	}
}

// Ordinal returns the row's value mapped onto a totally ordered numeric
// axis: the value itself for numeric columns, and the lexicographic rank
// (0-based) for string columns. Every condition attribute in the AQP++
// layers is addressed through this ordinal view.
func (c *Column) Ordinal(row int) float64 {
	switch c.Type {
	case Int64:
		return float64(c.intAt(row))
	case Float64:
		return c.floatAt(row)
	default:
		return float64(c.ranks()[c.codeAt(row)])
	}
}

// Ordinals fills dst with Ordinal(lo), …, Ordinal(lo+len(dst)-1). It
// reads the typed storage one zone block at a time, so a scan pays one
// type switch per block instead of one per row, and a source-backed
// column reports a failed block read as an error instead of a panic.
func (c *Column) Ordinals(lo int, dst []float64) error {
	if lo < 0 || lo+len(dst) > c.Len() {
		return fmt.Errorf("engine: column %q: rows [%d, %d) out of range", c.Name, lo, lo+len(dst))
	}
	var ranks []int32
	if c.Type == String {
		ranks = c.ranks()
	}
	for len(dst) > 0 {
		b := lo / zoneBlockSize
		v, err := c.view(b, nil)
		if err != nil {
			return err
		}
		off := lo - b*zoneBlockSize
		m := min(max(len(v.Ints), len(v.Floats), len(v.Codes))-off, len(dst))
		switch c.Type {
		case Int64:
			for i, x := range v.Ints[off : off+m] {
				dst[i] = float64(x)
			}
		case Float64:
			copy(dst, v.Floats[off:off+m])
		default:
			for i, code := range v.Codes[off : off+m] {
				dst[i] = float64(ranks[code])
			}
		}
		dst = dst[m:]
		lo += m
	}
	return nil
}

// Float returns the row's numeric value; for string columns it is the
// ordinal. Aggregation attributes use this accessor.
func (c *Column) Float(row int) float64 { return c.Ordinal(row) }

// StringAt returns the row's string value; for numeric columns it formats
// the number.
func (c *Column) StringAt(row int) string {
	switch c.Type {
	case Int64:
		return fmt.Sprintf("%d", c.intAt(row))
	case Float64:
		return fmt.Sprintf("%g", c.floatAt(row))
	default:
		return c.Dict[c.codeAt(row)]
	}
}

// OrdinalDomain returns the inclusive [min, max] ordinal range present in
// the column, or (0, -1) for an empty column.
func (c *Column) OrdinalDomain() (float64, float64) {
	if c.hasDom {
		return c.domLo, c.domHi
	}
	n := c.Len()
	if n == 0 {
		return 0, -1
	}
	if c.Type == String {
		return 0, float64(len(c.Dict) - 1)
	}
	if c.src != nil {
		// Source-backed columns answer from the persisted per-block zone
		// summaries — exact per-block min/max of the same ordinals the
		// resident scan below would visit — so plan-time domain queries
		// (SQL unbounded range sides) fault no block data.
		mins, maxs := c.src.BlockZones()
		lo, hi := mins[0], maxs[0]
		for b := 1; b < len(mins); b++ {
			if mins[b] < lo {
				lo = mins[b]
			}
			if maxs[b] > hi {
				hi = maxs[b]
			}
		}
		return lo, hi
	}
	lo, hi := c.Ordinal(0), c.Ordinal(0)
	for i := 1; i < n; i++ {
		v := c.Ordinal(i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Gather returns a new column containing the rows of c at the given
// indices, in order. Dictionary columns share the dictionary.
func (c *Column) Gather(idx []int) *Column {
	out := &Column{Name: c.Name, Type: c.Type}
	switch c.Type {
	case Int64:
		out.Ints = make([]int64, len(idx))
		for i, r := range idx {
			out.Ints[i] = c.intAt(r)
		}
	case Float64:
		out.Floats = make([]float64, len(idx))
		for i, r := range idx {
			out.Floats[i] = c.floatAt(r)
		}
	default:
		out.Dict = c.Dict
		out.Codes = make([]int32, len(idx))
		for i, r := range idx {
			out.Codes[i] = c.codeAt(r)
		}
	}
	return out
}

// AppendFrom appends row r of src (a column of the same type) to c.
func (c *Column) AppendFrom(src *Column, r int) {
	if c.Type != src.Type {
		panic("engine: AppendFrom type mismatch")
	}
	switch c.Type {
	case Int64:
		c.Ints = append(c.Ints, src.intAt(r))
	case Float64:
		c.Floats = append(c.Floats, src.floatAt(r))
	default:
		c.appendString(src.Dict[src.codeAt(r)])
	}
}
