package aqppp

import (
	"fmt"
	"sort"

	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/shard"
)

// ShardOptions configures RegisterSharded and Reshard: how a table is
// partitioned for scatter-gather execution.
type ShardOptions struct {
	// Column is the clustering column rows are partitioned on.
	Column string
	// Shards is the partition count N (>= 1).
	Shards int
	// ByHash spreads rows by a hash of the column instead of range
	// clustering. Hash layouts balance skew but give up range pruning;
	// the default range layout re-clusters rows by the column's order,
	// so a range predicate on it skips non-overlapping shards entirely.
	ByHash bool
}

func (o ShardOptions) layout() shard.Layout {
	s := shard.ByRange
	if o.ByHash {
		s = shard.ByHash
	}
	return shard.Layout{Strategy: s, Column: o.Column, N: o.Shards}
}

// RegisterSharded registers a table partitioned into opts.Shards shards.
// Exact queries against it scatter-gather across the shards (merged
// algebraically, so SUM/COUNT/MIN/MAX and integer-valued AVG/VAR are
// bit-identical to the unsharded scan), and Prepare builds one sample
// and BP-cube slice per shard, merged per-stratum at query time. The
// partitioning itself runs before any lock is taken.
func (db *DB) RegisterSharded(tbl *engine.Table, opts ShardOptions) error {
	s, err := shard.Partition(tbl, opts.layout())
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[tbl.Name]; ok {
		return fmt.Errorf("aqppp: table %q already registered", tbl.Name)
	}
	db.tables[tbl.Name] = tbl
	db.shards[tbl.Name] = s
	db.gens[tbl.Name]++
	return nil
}

// Reshard repartitions a registered table under a new layout (or shards
// a table registered unsharded). The table's generation bumps and every
// preparation built over it is invalidated, exactly like Drop: answers
// merged under one layout must never mix with plans or cached entries
// from another. Repartitioning runs outside the lock; if the table is
// dropped or replaced concurrently, Reshard fails without installing
// anything.
func (db *DB) Reshard(name string, opts ShardOptions) error {
	tbl, err := db.Table(name)
	if err != nil {
		return err
	}
	s, err := shard.Partition(tbl, opts.layout())
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if cur, ok := db.tables[name]; !ok || cur != tbl {
		return &exec.Error{Kind: exec.UnknownTable, Op: "reshard",
			Err: fmt.Errorf("table %q changed during reshard", name)}
	}
	db.shards[name] = s
	db.gens[name]++
	for _, st := range db.preps[name] {
		st.dropped.Store(true)
	}
	delete(db.preps, name)
	return nil
}

// lookupSharded resolves a table's shard layout, if it has one.
func (db *DB) lookupSharded(name string) (*shard.Sharded, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.shards[name]
	return s, ok
}

// Sharded reports a table's partitioned form, or nil if the table is
// not sharded (advanced use: direct scatter-gather execution).
func (db *DB) Sharded(name string) *shard.Sharded {
	s, _ := db.lookupSharded(name)
	return s
}

// ShardSnapshots captures the layout and per-shard scan counters of
// every sharded table, sorted by table name — the serving layer renders
// these into /statusz and /metrics.
func (db *DB) ShardSnapshots() []shard.Snapshot {
	db.mu.RLock()
	names := make([]string, 0, len(db.shards))
	for n := range db.shards {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	snaps := make([]shard.Snapshot, 0, len(names))
	for _, n := range names {
		if s, ok := db.lookupSharded(n); ok {
			snaps = append(snaps, s.Snapshot())
		}
	}
	return snaps
}
