package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aqppp/internal/contract"
	"aqppp/internal/server"
)

// Latency buckets an outcome is reported under.
const (
	bucketApprox      = "approx"
	bucketCacheHit    = "cache_hit"
	bucketBootstrap   = "bootstrap"
	bucketExact       = "exact"
	bucketContract    = "contract"
	bucketRefused     = "refused" // 422 contract-infeasible: a correct refusal
	bucketProgressive = "progressive"
	bucketPrepare     = "prepare"
)

var bucketNames = []string{bucketApprox, bucketCacheHit, bucketBootstrap, bucketExact,
	bucketContract, bucketRefused, bucketProgressive, bucketPrepare}

// Progressive stop reasons the server documents.
var doneReasons = map[string]bool{
	"contract-met": true, "sample-exhausted": true, "max-rounds": true, "budget-exhausted": true,
}

// Outcome is one request as the client saw it.
type Outcome struct {
	Item   Item
	Bucket string
	Lat    time.Duration
	Failed bool
	Why    string
	// Met reports a contract answered within its bound (contract and
	// progressive classes).
	Met bool
	// NegativeHW marks an answer whose half-width is negative within
	// float resolution.
	NegativeHW bool
	// Refusal is the error kind of a contract refused with 422.
	Refusal string
	// Resp is the decoded success body of JSON endpoints; Done the
	// terminal event of a progressive stream.
	Resp *server.QueryResponse
	Done *server.ProgressiveDoneJSON
	// Req is the request's span ID when traced.
	Req uint64
}

func (o *Outcome) fail(format string, args ...any) {
	if !o.Failed {
		o.Failed = true
		o.Why = fmt.Sprintf(format, args...)
	}
}

// sent counts requests per endpoint, for the /statusz accounting check.
type sent struct {
	mu sync.Mutex
	n  map[string]int
}

func (s *sent) add(ep string) {
	s.mu.Lock()
	s.n[ep]++
	s.mu.Unlock()
}

func (s *sent) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.n))
	for k, v := range s.n {
		out[k] = v
	}
	return out
}

// Client sends requests to one front server.
type Client struct {
	hc   *http.Client
	base string
	sent *sent
	// rec is set while tracing.
	rec *Recorder
	// hs resolves handle names (blue/green re-prepare).
	hs *handleSet
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
}

// handleSet maps each handle family to its current name. Readers hold
// the read lock for a whole request, so a re-prepare deletes the old
// name only after every request using it has finished.
type handleSet struct {
	mu  sync.RWMutex
	cur map[string]string
	// gens numbers re-prepares, so names stay unique across the
	// warm-up and measured streams.
	gens atomic.Int64
}

func newHandleSet() *handleSet {
	hs := &handleSet{cur: map[string]string{}}
	for _, h := range handles {
		hs.cur[h] = h
	}
	return hs
}

// exchange is one HTTP round trip.
type exchange struct {
	status int
	header http.Header
	body   []byte
	// resp is left open for streaming callers.
	resp *http.Response
}

// send posts body (JSON) or sends a bodiless method. With stream set
// the response body is left for the caller to read and close.
func (c *Client) send(ctx context.Context, method, path string, body any, span Span, stream bool) (exchange, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return exchange{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span.ID != 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", span.Req, span.ID))
	}
	c.sent.add(endpointOf(path))
	resp, err := c.hc.Do(req)
	if err != nil {
		return exchange{}, err
	}
	ex := exchange{status: resp.StatusCode, header: resp.Header}
	if stream {
		ex.resp = resp
		return ex, nil
	}
	defer func() { _ = resp.Body.Close() }()
	ex.body, err = io.ReadAll(resp.Body)
	return ex, err
}

// Do runs one item and checks what came back.
func (c *Client) Do(ctx context.Context, it Item) Outcome {
	out := Outcome{Item: it}
	if it.Class == classPrepare {
		c.rePrepare(ctx, it, &out)
		return out
	}
	c.hs.mu.RLock()
	defer c.hs.mu.RUnlock()
	handle := c.hs.cur[it.Stmt.Handle]

	path, body := "", any(nil)
	switch it.Class {
	case classApprox:
		path, body = "/v1/approx", server.QueryRequest{SQL: it.Stmt.SQL, Prepared: handle}
	case classBootstrap:
		path, body = "/v1/approx", server.QueryRequest{SQL: it.Stmt.SQL, Prepared: handle, Resamples: resamples}
	case classExact:
		path, body = "/v1/query", server.QueryRequest{SQL: it.Stmt.SQL}
	case classContract:
		path, body = "/v1/contract", server.ContractRequest{SQL: it.Stmt.SQL, Prepared: handle, MaxRelError: it.Rel}
	case classProgressive:
		path, body = "/v1/progressive", server.ProgressiveRequest{
			SQL: it.Stmt.SQL, Prepared: handle, MaxRelError: it.Rel, Seed: it.Seed, MaxRounds: progressiveRounds}
	default:
		out.fail("unknown class %q", it.Class)
		return out
	}
	span := c.rec.Open("client "+path, 0, 0)
	span.Req = span.ID
	out.Req = span.Req
	t0 := time.Now()
	ex, err := c.send(ctx, http.MethodPost, path, body, span, it.Class == classProgressive)
	if err != nil {
		out.Lat = time.Since(t0)
		c.rec.Close(span)
		out.fail("transport: %v", err)
		return out
	}
	if it.Class == classProgressive {
		c.readStream(ex, &out)
		out.Lat = time.Since(t0)
		c.rec.Close(span)
		return out
	}
	out.Lat = time.Since(t0)
	c.rec.Close(span)
	c.checkJSON(it, ex, &out)
	return out
}

// checkJSON classifies a JSON answer and checks it is well formed.
func (c *Client) checkJSON(it Item, ex exchange, out *Outcome) {
	switch it.Class {
	case classApprox:
		out.Bucket = bucketApprox
	case classBootstrap:
		out.Bucket = bucketBootstrap
	case classExact:
		out.Bucket = bucketExact
	case classContract:
		out.Bucket = bucketContract
	}
	if ex.status == http.StatusUnprocessableEntity && it.Class == classContract {
		// A 422 is a refusal, not a failure: "contract-infeasible" is the
		// documented one; "unsupported" comes from a ladder rung that
		// cannot answer the aggregate and is reported separately.
		var eb server.ErrorBody
		if err := json.Unmarshal(ex.body, &eb); err != nil ||
			(eb.Error.Kind != "contract-infeasible" && eb.Error.Kind != "unsupported") {
			out.fail("contract 422 with an unexpected body: %s", ex.body)
			return
		}
		out.Bucket, out.Refusal = bucketRefused, eb.Error.Kind
		if eb.Error.Kind == "contract-infeasible" && !strings.Contains(eb.Error.Message, "(runtime:") {
			c.sent.add(planRefused)
		}
		return
	}
	if ex.status != http.StatusOK {
		out.fail("%s: status %d: %s", it.Class, ex.status, strings.TrimSpace(string(ex.body)))
		return
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(ex.body, &resp); err != nil {
		out.fail("%s: malformed body: %v", it.Class, err)
		return
	}
	out.Resp = &resp
	if ex.header.Get("X-Cache") == "hit" {
		out.Bucket = bucketCacheHit
	}
	if math.IsNaN(resp.Value) || math.IsInf(resp.Value, 0) {
		out.fail("%s: non-finite value %v", it.Class, resp.Value)
		return
	}
	if it.Class == classExact {
		return
	}
	if resp.HalfWidth == nil || math.IsNaN(*resp.HalfWidth) || math.IsInf(*resp.HalfWidth, 0) {
		out.fail("%s: half-width missing or invalid", it.Class)
		return
	}
	if hw := *resp.HalfWidth; hw < 0 {
		// A bootstrap over replicates that agree to the last bit can
		// come back one ulp below zero (a known defect of
		// core.AnswerBootstrap). Below the value's float resolution the
		// width is zero; that case is counted and reported, anything
		// more negative fails.
		if hw < -2*ulp(resp.Value) {
			out.fail("%s: negative half-width %v", it.Class, hw)
			return
		}
		out.NegativeHW = true
	}
	if it.Class == classContract {
		switch resp.Strategy {
		case "cube", "approx", "bootstrap", "exact":
		default:
			out.fail("contract: unknown strategy %q", resp.Strategy)
			return
		}
		// A 200 claims the bound was met; hold it to that.
		if !(contract.Contract{MaxRelError: it.Rel}).Met(resp.Value, *resp.HalfWidth) {
			out.fail("contract: answer %v ± %v misses rel %v", resp.Value, *resp.HalfWidth, it.Rel)
			return
		}
		out.Met = true
	}
}

// ulp is the spacing of float64 values at |v|.
func ulp(v float64) float64 {
	v = math.Abs(v)
	return math.Nextafter(v, math.Inf(1)) - v
}

// readStream consumes a progressive SSE stream: rounds must never
// widen and the stream must end with a documented done reason.
func (c *Client) readStream(ex exchange, out *Outcome) {
	out.Bucket = bucketProgressive
	defer func() { _ = ex.resp.Body.Close() }()
	if ex.status != http.StatusOK {
		b, _ := io.ReadAll(ex.resp.Body)
		out.fail("progressive: status %d: %s", ex.status, strings.TrimSpace(string(b)))
		return
	}
	sc := bufio.NewScanner(ex.resp.Body)
	event, prevHW, rounds := "", math.Inf(1), 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "round":
				var r server.ProgressiveRoundJSON
				if err := json.Unmarshal(data, &r); err != nil {
					out.fail("progressive: malformed round: %v", err)
					return
				}
				rounds++
				if r.HalfWidth > prevHW || r.HalfWidth < 0 || math.IsNaN(r.Value) {
					out.fail("progressive: round %d widened or is invalid (%v after %v)", r.Round, r.HalfWidth, prevHW)
					return
				}
				prevHW = r.HalfWidth
			case "done":
				var d server.ProgressiveDoneJSON
				if err := json.Unmarshal(data, &d); err != nil {
					out.fail("progressive: malformed done: %v", err)
					return
				}
				if !doneReasons[d.Reason] {
					out.fail("progressive: undocumented done reason %q", d.Reason)
					return
				}
				if d.Rounds != rounds || (rounds > 0 && math.Float64bits(d.HalfWidth) != math.Float64bits(prevHW)) {
					out.fail("progressive: done (%d rounds, hw %v) disagrees with the stream (%d, %v)",
						d.Rounds, d.HalfWidth, rounds, prevHW)
					return
				}
				out.Done, out.Met = &d, d.Met
				return
			default:
				out.fail("progressive: %s event: %s", event, data)
				return
			}
		}
	}
	out.fail("progressive: stream ended without a done event (%v)", sc.Err())
}

// rePrepare is the blue/green write: build the handle again under a
// new name with the same options, move reads to it, drop the old name.
func (c *Client) rePrepare(ctx context.Context, it Item, out *Outcome) {
	out.Bucket = bucketPrepare
	family := handles[it.Prepare%len(handles)]
	name := fmt.Sprintf("%s.g%d", family, c.hs.gens.Add(1))
	span := c.rec.Open("client /v1/prepare", 0, 0)
	span.Req = span.ID
	out.Req = span.Req
	t0 := time.Now()
	ex, err := c.send(ctx, http.MethodPost, "/v1/prepare", server.PrepareRequest{
		Name: name, Table: "lineitem", Aggregate: aggCol, Dimensions: handleDims[family],
		SampleRate: sampleRate, CellBudget: cellBudget, Seed: prepSeed, WithCountCube: true,
	}, span, false)
	out.Lat = time.Since(t0)
	c.rec.Close(span)
	if err != nil {
		out.fail("prepare: transport: %v", err)
		return
	}
	if ex.status != http.StatusOK {
		out.fail("prepare: status %d: %s", ex.status, strings.TrimSpace(string(ex.body)))
		return
	}
	c.hs.mu.Lock()
	old := c.hs.cur[family]
	c.hs.cur[family] = name
	c.hs.mu.Unlock()
	ex, err = c.send(ctx, http.MethodDelete, "/v1/prepared/"+old, nil, Span{}, false)
	if err != nil {
		out.fail("drop %s: transport: %v", old, err)
		return
	}
	if ex.status != http.StatusNoContent {
		out.fail("drop %s: status %d", old, ex.status)
	}
}
