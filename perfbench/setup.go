package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aqppp"
	"aqppp/internal/dataset"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/server"
	"aqppp/internal/shard"
)

// The data and preparation every workload shares (see ENVIRONMENT.md).
const (
	tableRows  = 1 << 20
	dataSeed   = 42
	prepSeed   = 42
	sampleRate = 0.01
	cellBudget = 5000
	aggCol     = "l_extendedprice"
	fleetSize  = 2
	shardCol   = "l_shipdate"
)

// spanHeader carries "req/parent" span IDs from the benchmark's client
// and from the coordinator's replica client to the middleware.
const spanHeader = "X-Bench-Span"

func makeTable() *engine.Table {
	return dataset.TPCDSkew(dataset.TPCDConfig{Rows: tableRows, Seed: dataSeed})
}

func prepOptions(table string, dims []string, budget int, seed uint64) aqppp.PrepareOptions {
	return aqppp.PrepareOptions{
		Table: table, Aggregate: aggCol, Dimensions: dims,
		SampleRate: sampleRate, CellBudget: budget, Seed: seed, WithCountCube: true,
	}
}

// handleDims maps each handle to its template's dimensions.
var handleDims = map[string][]string{handle2D: dims2D, handle1D: dims1D}

// handles lists the handles in a fixed order.
var handles = []string{handle2D, handle1D}

// tracer switches span recording on and off for every server and the
// coordinator's replica client at once.
type tracer struct{ rec atomic.Pointer[Recorder] }

// wrap is the benchmark's middleware around a Server.Handler(): one
// span per request, with the request context carrying it so the
// coordinator's replica calls nest under it.
func (t *tracer) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil || r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		req, parent := parseSpanHeader(r.Header.Get(spanHeader))
		s := rec.Open(role+" "+endpointOf(r.URL.Path), req, parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), req, s.ID)))
		rec.Close(s)
	})
}

// spanTransport is the coordinator's replica client transport: it
// forwards the span context to the replica and times the call.
type spanTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := st.t.rec.Load()
	sc, ok := spanFrom(r.Context())
	if rec == nil || !ok {
		return st.base.RoundTrip(r)
	}
	s := rec.Open("dist.call", sc.req, sc.parent)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", sc.req, s.ID))
	resp, err := st.base.RoundTrip(r)
	rec.Close(s)
	return resp, err
}

func parseSpanHeader(v string) (req, parent uint64) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return req, parent
}

// endpointOf folds /v1/prepared/<name> into one endpoint.
func endpointOf(path string) string {
	if strings.HasPrefix(path, "/v1/prepared/") {
		return "/v1/prepared"
	}
	return path
}

// node is one server on a loopback listener.
type node struct {
	hs   *http.Server
	url  string
	done chan error
}

func startNode(h http.Handler) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + l.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { n.done <- n.hs.Serve(l) }()
	return n, nil
}

// ready polls /healthz until the node answers.
func (n *node) ready(hc *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(n.url + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not ready: %v", n.url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (n *node) statusz(hc *http.Client) (server.StatuszResponse, error) {
	var st server.StatuszResponse
	resp, err := hc.Get(n.url + "/statusz")
	if err != nil {
		return st, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stack is one set-up system: the front server the clients talk to
// and, for the fleet, its replicas.
type stack struct {
	db    *aqppp.DB
	front *node
	// preps are the front's handles as registered at set-up.
	preps map[string]*aqppp.Prepared
	// Fleet only.
	coord    *dist.Coordinator
	replicas []*node
	// replicaPreps[i][h] is replica i's preparation for handle h.
	replicaPreps []map[string]*aqppp.Prepared
	// prepStats are the preprocessing figures of every preparation
	// built at set-up (replicas' for the fleet).
	prepStats []aqppp.PreprocessingStats
}

func (s *stack) nodes() []*node {
	var out []*node
	if s.front != nil {
		out = append(out, s.front)
	}
	return append(out, s.replicas...)
}

func (s *stack) close() error {
	var err error
	for _, n := range s.nodes() {
		err = errors.Join(err, n.stop())
	}
	return err
}

// prepareAll builds every handle on db's table, recording a
// prepare span per handle when rec is set.
func prepareAll(db *aqppp.DB, table string, budget int, seed uint64, rec *Recorder) (map[string]*aqppp.Prepared, []aqppp.PreprocessingStats, error) {
	preps := map[string]*aqppp.Prepared{}
	var stats []aqppp.PreprocessingStats
	for _, h := range handles {
		s := rec.Open("prepare.build "+h, 0, 0)
		p, err := db.Prepare(prepOptions(table, handleDims[h], budget, seed))
		rec.Close(s)
		if err != nil {
			return nil, nil, fmt.Errorf("prepare %s: %w", h, err)
		}
		preps[h] = p
		stats = append(stats, p.Stats())
	}
	return preps, stats, nil
}

// setupSingle registers tbl behind one server with both handles. The
// returned duration runs from Register until the server answers.
func setupSingle(tbl *engine.Table, t *tracer, hc *http.Client) (*stack, time.Duration, error) {
	t0 := time.Now()
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		return nil, 0, err
	}
	preps, stats, err := prepareAll(db, tbl.Name, cellBudget, prepSeed, t.rec.Load())
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(db, server.Config{})
	for _, h := range handles {
		if err := srv.RegisterPrepared(h, preps[h]); err != nil {
			return nil, 0, err
		}
	}
	front, err := startNode(t.wrap("handler", srv.Handler()))
	if err != nil {
		return nil, 0, err
	}
	st := &stack{db: db, front: front, preps: preps, prepStats: stats}
	if err := front.ready(hc); err != nil {
		return st, 0, err
	}
	return st, time.Since(t0), nil
}

// setupFleet range-slices tbl on l_shipdate into fleetSize replica
// servers, each preparing both handles with the per-shard derived seed
// and split budget, then dials them from a coordinator server. The
// returned duration runs from the first slice until the coordinator
// answers.
func setupFleet(tbl *engine.Table, t *tracer, hc *http.Client) (*stack, time.Duration, error) {
	t0 := time.Now()
	layout := shard.Layout{Strategy: shard.ByRange, Column: shardCol, N: fleetSize}
	st := &stack{}
	urls := make([]string, fleetSize)
	for i := 0; i < fleetSize; i++ {
		slice, identity, err := dist.SliceTable(tbl, layout, i)
		if err != nil {
			return st, 0, err
		}
		db := aqppp.NewDB()
		if err := db.Register(slice); err != nil {
			return st, 0, err
		}
		preps, stats, err := prepareAll(db, slice.Name, shard.SplitBudget(cellBudget, fleetSize),
			shard.DeriveSeed(prepSeed, i), t.rec.Load())
		if err != nil {
			return st, 0, err
		}
		srv := server.New(db, server.Config{
			Replica: &server.ReplicaRole{Table: slice.Name, Ident: identity},
		})
		for _, h := range handles {
			if err := srv.RegisterPrepared(h, preps[h]); err != nil {
				return st, 0, err
			}
		}
		n, err := startNode(t.wrap("replica", srv.Handler()))
		if err != nil {
			return st, 0, err
		}
		st.replicas = append(st.replicas, n)
		st.replicaPreps = append(st.replicaPreps, preps)
		st.prepStats = append(st.prepStats, stats...)
		urls[i] = n.url
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	coord, err := dist.Dial(ctx, urls, dist.Config{
		Timeout: 30 * time.Second,
		Client: &http.Client{Transport: spanTransport{t: t, base: &http.Transport{
			MaxIdleConnsPerHost: 16, DisableCompression: true,
		}}},
	})
	if err != nil {
		return st, 0, err
	}
	db := aqppp.NewDB()
	if err := db.RegisterDistributed(coord.SchemaTable(), coord); err != nil {
		return st, 0, err
	}
	srv := server.New(db, server.Config{Coordinator: coord})
	st.db, st.coord, st.preps = db, coord, map[string]*aqppp.Prepared{}
	for _, h := range coord.Handles() {
		p, err := db.DistPrepared(coord.Table(), h.Name, h.Confidence, h.SampleRows)
		if err != nil {
			return st, 0, err
		}
		if err := srv.RegisterPrepared(h.Name, p); err != nil {
			return st, 0, err
		}
		st.preps[h.Name] = p
	}
	if st.front, err = startNode(t.wrap("handler", srv.Handler())); err != nil {
		return st, 0, err
	}
	for _, n := range st.nodes() {
		if err := n.ready(hc); err != nil {
			return st, 0, err
		}
	}
	return st, time.Since(t0), nil
}
