package aqppp

import (
	"fmt"

	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
)

// RegisterDistributed registers a remote table: a zero-row schema table
// (typically dist.Coordinator.SchemaTable()) whose data lives on a
// replica fleet, with c answering every plan against it. Exact queries
// against the name scatter-gather over the network and merge
// bit-identically to the in-process sharded path; DistPrepared exposes
// the fleet's prepared handles for approximate queries.
func (db *DB) RegisterDistributed(tbl *engine.Table, c *dist.Coordinator) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[tbl.Name]; ok {
		return fmt.Errorf("aqppp: table %q already registered", tbl.Name)
	}
	db.tables[tbl.Name] = tbl
	db.dist[tbl.Name] = c
	db.gens[tbl.Name]++
	return nil
}

// DistPrepared wraps one of a distributed table's prepared handles —
// built independently by every replica over its own slice — as a
// Prepared. Queries plan once against the schema table and fan out to
// the fleet; confidence and sampleRows describe the handle as the
// replicas reported it (dist.Coordinator.Handles()).
func (db *DB) DistPrepared(table, handle string, confidence float64, sampleRows int) (*Prepared, error) {
	tbl, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	c, ok := db.dist[table]
	db.mu.RUnlock()
	if !ok {
		return nil, &exec.Error{Kind: exec.Unsupported, Op: "prepare",
			Err: fmt.Errorf("table %q is not distributed", table)}
	}
	g := c.Group(handle)
	g.Confidence = confidence
	return &Prepared{
		db: db, tbl: tbl, group: g,
		stats: PreprocessingStats{SampleRows: sampleRows},
		state: db.track(table),
	}, nil
}
