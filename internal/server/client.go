package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"incdb/internal/api"
	"incdb/internal/obs"
	"incdb/internal/store"
)

// Client speaks the incdbd HTTP/JSON protocol; incdbctl's client/REPL mode,
// the replication follower and the smoke tests are built on it, so the CLI
// and the server share the wire types (incdb/internal/api) by construction.
//
// The client tracks the session's version vector as responses report it
// and echoes it as the consistency token of every query, so a session of
// reads through one client is monotonic even when its requests land on a
// replica that lags the primary: the replica holds the read until
// replication covers the token (or answers 412 stale_replica, api.Error
// code CodeStaleReplica). Vector/SetVector expose the token so it can also
// be carried across processes (incdbctl -read-after).
//
// A client built with NewFailoverClient is failover-aware: it holds a list
// of endpoints (the primary and its replicas), classifies errors as
// retryable (connection refused/reset, overloaded, shutting_down, and —
// for writes — read_only_replica and fenced_stale_primary) versus terminal
// (bad query, unknown session), retries with jittered exponential backoff,
// and re-discovers the writable primary by probing /v1/status for
// role+epoch. The consistency token and the highest observed epoch carry
// across the switch, so read-your-writes holds through a failover and a
// revived stale primary is fenced by the first write that reaches it. A
// single-endpoint client (NewClient) never retries — errors surface
// immediately, exactly as before failover awareness existed.
type Client struct {
	endpoints []string
	session   string
	hc        *http.Client

	// retryWindow bounds how long a multi-endpoint client keeps retrying a
	// retryable failure before surfacing it.
	retryWindow time.Duration

	mu     sync.Mutex
	vec    map[string]uint64
	epoch  uint64 // highest epoch observed in any response
	cur    int    // preferred endpoint index
	trace  string // traceparent header sent with every mutation/query, "" = none
	detail bool   // ask for per-plan-node spans on traced queries
}

// NewClient returns a client for the single server at base (e.g.
// "http://127.0.0.1:8080") operating on the named session. It never
// retries or fails over.
func NewClient(base, session string) *Client {
	return NewFailoverClient([]string{base}, session)
}

// NewFailoverClient returns a client that fails over across the given
// endpoints (first one preferred). With more than one endpoint, retryable
// errors are retried with jittered exponential backoff for up to
// DefaultRetryWindow (see SetRetryWindow) while the client re-discovers
// the writable primary.
func NewFailoverClient(endpoints []string, session string) *Client {
	eps := make([]string, 0, len(endpoints))
	for _, e := range endpoints {
		if e = strings.TrimRight(strings.TrimSpace(e), "/"); e != "" {
			eps = append(eps, e)
		}
	}
	return &Client{
		endpoints:   eps,
		session:     session,
		hc:          &http.Client{},
		retryWindow: DefaultRetryWindow,
	}
}

// DefaultRetryWindow is how long a failover client retries retryable
// failures before giving up.
const DefaultRetryWindow = 15 * time.Second

// SetRetryWindow adjusts the retry budget (multi-endpoint clients only).
func (c *Client) SetRetryWindow(d time.Duration) { c.retryWindow = d }

// Session returns the session name the client operates on.
func (c *Client) Session() string { return c.session }

// Base returns the server URL the client currently prefers.
func (c *Client) Base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur]
}

// Epoch returns the highest replication epoch the client has observed.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// observeEpoch folds a response's epoch into the client's (monotonic).
func (c *Client) observeEpoch(e uint64) {
	c.mu.Lock()
	if e > c.epoch {
		c.epoch = e
	}
	c.mu.Unlock()
}

// Vector returns the client's current consistency token: the merge of
// every version vector the server has reported to it.
func (c *Client) Vector() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.vec))
	for k, v := range c.vec {
		out[k] = v
	}
	return out
}

// SetVector replaces the consistency token outright: with one obtained
// elsewhere (another client, incdbctl vector) so the next query reads at
// least that state, and after a wholesale replace or snapshot restore,
// whose relations restart their counters — merging would pin the client to
// versions that no longer exist.
func (c *Client) SetVector(vec map[string]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vec = make(map[string]uint64, len(vec))
	for k, v := range vec {
		c.vec[k] = v
	}
}

// mergeVector folds a response's vector into the token, keeping the newest
// version per relation.
func (c *Client) mergeVector(vec map[string]uint64) {
	if len(vec) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.vec == nil {
		c.vec = map[string]uint64{}
	}
	for k, v := range vec {
		if c.vec[k] < v {
			c.vec[k] = v
		}
	}
}

func (c *Client) sessionPath(suffix string) string {
	return "/v1/sessions/" + url.PathEscape(c.session) + suffix
}

// SetTraceParent installs a W3C traceparent the client sends with every
// load/query/explain request, so server-side spans join the caller's
// distributed trace ("" stops propagating). Most callers want NewTrace
// instead.
func (c *Client) SetTraceParent(tp string) {
	c.mu.Lock()
	c.trace = tp
	c.mu.Unlock()
}

// NewTrace mints a fresh always-sampled trace context, installs it as the
// client's traceparent, and returns the trace ID — afterwards the spans of
// every request this client sends can be fetched with Trace(id) (on each
// server of the fleet; the sampled flag travels with the requests and
// their WAL records, so primaries and replicas all keep their spans).
func (c *Client) NewTrace() string {
	sc := obs.NewSpanContext(true)
	c.SetTraceParent(sc.TraceParent())
	return sc.TraceID.String()
}

// traceParent returns the installed traceparent ("" = none).
func (c *Client) traceParent() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace
}

// SetTraceDetail asks for per-plan-node child spans on every traced query
// this client sends (api.QueryRequest.TraceDetail) — the trace-tree view
// of EXPLAIN ANALYZE's actuals. Ignored by the server unless the
// request's trace is sampled.
func (c *Client) SetTraceDetail(on bool) {
	c.mu.Lock()
	c.detail = on
	c.mu.Unlock()
}

func (c *Client) traceDetail() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detail
}

// retryable classifies an error: can another attempt (possibly against
// another endpoint) succeed where this one failed? Transport errors
// (connection refused/reset — the endpoint is dead or restarting) are
// always retryable; protocol errors are retryable by code: overloaded and
// shutting_down are transient anywhere, read_only_replica and
// fenced_stale_primary mean a write landed on a non-primary (re-discover
// and retry there), stale_replica means a read landed on a lagging replica
// (another endpoint may be fresher). Everything else — bad query, unknown
// session, internal — is terminal: retrying cannot change the answer.
func retryable(err error, write bool) bool {
	var aerr *api.Error
	if !errors.As(err, &aerr) {
		return true // transport-level: endpoint unreachable
	}
	switch aerr.Code {
	case api.CodeOverloaded, api.CodeShuttingDown:
		return true
	case api.CodeReadOnlyReplica, api.CodeFencedStalePrimary:
		return write
	case api.CodeStaleReplica:
		return !write
	default:
		return false
	}
}

// retry runs fn against the preferred endpoint, and — multi-endpoint
// clients only — keeps retrying retryable failures with jittered
// exponential backoff (50ms doubling to 1s) until the retry window runs
// out, re-picking the endpoint after each failure: writes re-discover the
// primary, reads rotate. fn must be safe to re-run (request bodies are
// rebuilt per attempt).
func (c *Client) retry(write bool, fn func(base string) error) error {
	if len(c.endpoints) == 1 {
		return fn(c.endpoints[0])
	}
	deadline := time.Now().Add(c.retryWindow)
	backoff := 50 * time.Millisecond
	for {
		err := fn(c.Base())
		if err == nil || !retryable(err, write) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
		c.reroute(err, write)
		time.Sleep(jitter(backoff))
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// reroute picks the next endpoint after a retryable failure: failed writes
// (and writes bounced by a non-primary) probe every endpoint's status for
// the writable primary; failed reads rotate to the next endpoint.
func (c *Client) reroute(err error, write bool) {
	var aerr *api.Error
	if errors.As(err, &aerr) {
		switch aerr.Code {
		case api.CodeReadOnlyReplica, api.CodeFencedStalePrimary:
			c.discoverPrimary()
			return
		case api.CodeStaleReplica:
			c.advance()
			return
		}
	}
	if write {
		c.discoverPrimary()
	} else {
		c.advance()
	}
}

// advance rotates the preferred endpoint (reads go anywhere).
func (c *Client) advance() {
	c.mu.Lock()
	c.cur = (c.cur + 1) % len(c.endpoints)
	c.mu.Unlock()
}

// discoverPrimary probes every endpoint's /v1/status (briefly) and prefers
// the reachable writable primary with the highest epoch — after a
// failover, the promoted follower; every probed epoch folds into the
// client's, so subsequent writes fence any stale primary they reach.
func (c *Client) discoverPrimary() {
	best, bestEpoch := -1, uint64(0)
	for i, ep := range c.endpoints {
		st, err := c.statusAt(ep, 2*time.Second)
		if err != nil {
			continue
		}
		c.observeEpoch(st.Epoch)
		if st.Role == api.RolePrimary && (best < 0 || st.Epoch > bestEpoch) {
			best, bestEpoch = i, st.Epoch
		}
	}
	if best >= 0 {
		c.mu.Lock()
		c.cur = best
		c.mu.Unlock()
	} else {
		c.advance() // nothing claims primary yet; keep rotating
	}
}

// statusAt fetches one endpoint's status with a bounded wait.
func (c *Client) statusAt(base string, timeout time.Duration) (*api.StatusResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out api.StatusResponse
	if err := c.get(ctx, base, "/v1/status", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Load replaces (or, with append_, extends) the session database with data
// in the raparse text format.
func (c *Client) Load(data string, append_ bool) (*api.LoadResponse, error) {
	var out api.LoadResponse
	err := c.retry(true, func(base string) error {
		return c.post(base, c.sessionPath("/load"),
			api.LoadRequest{Data: data, Append: append_, Epoch: c.Epoch()}, &out)
	})
	if err != nil {
		return nil, err
	}
	c.observeEpoch(out.Epoch)
	if append_ {
		c.mergeVector(out.Versions)
	} else {
		c.SetVector(out.Versions)
	}
	return &out, nil
}

// LoadFile is Load from a file.
func (c *Client) LoadFile(path string, append_ bool) (*api.LoadResponse, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return c.Load(string(data), append_)
}

// Query evaluates a query under the given procedure (see api.QueryRequest),
// sending the client's consistency token and folding the response's vector
// back in.
func (c *Client) Query(query, proc string, bag bool, maxWorlds int) (*api.QueryResponse, error) {
	var out api.QueryResponse
	err := c.retry(false, func(base string) error {
		return c.post(base, c.sessionPath("/query"), api.QueryRequest{
			Query: query, Proc: proc, Bag: bag, MaxWorlds: maxWorlds,
			ReadAfter: c.Vector(), Epoch: c.Epoch(), TraceDetail: c.traceDetail(),
		}, &out)
	})
	if err != nil {
		return nil, err
	}
	c.observeEpoch(out.Epoch)
	c.mergeVector(out.Versions)
	return &out, nil
}

// Explain renders the plan for a query.
func (c *Client) Explain(query string, sql, bag bool) (*api.ExplainResponse, error) {
	return c.ExplainAnalyze(query, sql, bag, false)
}

// ExplainAnalyze is Explain with the analyze switch: the server also
// executes the plan once with per-node tracing, so the response carries
// actual row counts and wall time next to the estimates.
func (c *Client) ExplainAnalyze(query string, sql, bag, analyze bool) (*api.ExplainResponse, error) {
	var out api.ExplainResponse
	err := c.retry(false, func(base string) error {
		return c.post(base, c.sessionPath("/explain"),
			api.ExplainRequest{Query: query, SQL: sql, Bag: bag, Analyze: analyze}, &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Promote asks the preferred endpoint to become the writable primary at
// epoch+1 (see api.PromoteRequest for force). Deliberately not retried:
// promotion is an operator action against one chosen server.
func (c *Client) Promote(force bool) (*api.PromoteResponse, error) {
	var out api.PromoteResponse
	if err := c.post(c.Base(), "/v1/promote", api.PromoteRequest{Force: force}, &out); err != nil {
		return nil, err
	}
	c.observeEpoch(out.Epoch)
	return &out, nil
}

// Snapshot fetches the session's consistent snapshot export (the
// store.Snapshot encoding): the bootstrap payload Restore (or a durable
// snapshot file) accepts.
func (c *Client) Snapshot() (string, error) {
	data, err := c.getRaw(context.Background(), c.Base(), c.sessionPath("/snapshot"))
	return string(data), err
}

// Restore replaces the session database from a snapshot export, preserving
// null identities, version vector and warm prepared-plan keys — an
// operator's load of another server's export (incdbctl restore). A replica
// does not call it: its bootstrap fetches Snapshot and installs the
// snapshot itself.
func (c *Client) Restore(data string) (*api.LoadResponse, error) {
	var out api.LoadResponse
	err := c.retry(true, func(base string) error {
		return c.post(base, c.sessionPath("/load"), api.LoadRequest{Data: data, Snapshot: true}, &out)
	})
	if err != nil {
		return nil, err
	}
	c.observeEpoch(out.Epoch)
	c.SetVector(out.Versions)
	return &out, nil
}

// Status fetches the server-wide status snapshot of the preferred
// endpoint.
func (c *Client) Status() (*api.StatusResponse, error) {
	var out api.StatusResponse
	if err := c.get(context.Background(), c.Base(), "/v1/status", &out); err != nil {
		return nil, err
	}
	c.observeEpoch(out.Epoch)
	return &out, nil
}

// Metrics fetches the preferred endpoint's Prometheus text exposition
// (GET /v1/metrics) verbatim; parse it with obs.ParseProm.
func (c *Client) Metrics() (string, error) {
	data, err := c.getRaw(context.Background(), c.Base(), "/v1/metrics")
	return string(data), err
}

// SessionStatus fetches this session's status.
func (c *Client) SessionStatus() (*api.SessionStatus, error) {
	var out api.SessionStatus
	if err := c.get(context.Background(), c.Base(), c.sessionPath("/status"), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TailWAL opens the session's replication stream at the given position
// (records with sequence numbers strictly greater than from) and invokes
// fn for every record until the stream ends or ctx is done. The returned
// error is nil on a server-side clean close (the follower reconnects), an
// *api.Error on a request-time refusal — notably CodeWALGap, demanding a
// snapshot re-bootstrap — and the transport error otherwise.
func (c *Client) TailWAL(ctx context.Context, from uint64, fn func(*store.Record) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base()+c.sessionPath(fmt.Sprintf("/wal?from=%d", from)), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return api.DecodeError(resp.StatusCode, data)
	}
	for {
		rec, err := store.ReadFrame(resp.Body)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Traces fetches the preferred endpoint's recently finished root spans
// (GET /v1/traces); limit <= 0 means the server default.
func (c *Client) Traces(limit int) (*api.TracesResponse, error) {
	path := "/v1/traces"
	if limit > 0 {
		path += fmt.Sprintf("?limit=%d", limit)
	}
	var out api.TracesResponse
	if err := c.get(context.Background(), c.Base(), path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trace fetches every span the preferred endpoint holds for one trace ID
// (GET /v1/traces/{id}). A distributed trace is assembled by calling this
// on the primary and each replica and merging the span lists.
func (c *Client) Trace(id string) (*api.TraceResponse, error) {
	var out api.TraceResponse
	if err := c.get(context.Background(), c.Base(), "/v1/traces/"+url.PathEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (c *Client) post(base, path string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := c.traceParent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	data, err = c.do(req)
	return decodeBody(data, err, into)
}

// get is one GET of base+path, the JSON response decoded into into.
func (c *Client) get(ctx context.Context, base, path string, into any) error {
	data, err := c.getRaw(ctx, base, path)
	return decodeBody(data, err, into)
}

// getRaw is one GET of base+path, returning the response body.
func (c *Client) getRaw(ctx context.Context, base, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// do sends req and returns the body of a 2xx response; any other status is
// returned as the server's error (api.DecodeError).
func (c *Client) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Size the buffer from Content-Length instead of growing it by doubling.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), maxBodyBytes)+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if resp.StatusCode/100 != 2 {
		return nil, api.DecodeError(resp.StatusCode, data)
	}
	return data, nil
}

// decodeBody unmarshals a response body fetched with err into into; a query
// response goes through its own codec, everything else through
// encoding/json.
func decodeBody(data []byte, err error, into any) error {
	if err != nil {
		return err
	}
	switch into := into.(type) {
	case *api.QueryResponse:
		err = api.DecodeQueryResponse(data, into)
	default:
		err = json.Unmarshal(data, into)
	}
	if err != nil {
		return fmt.Errorf("server: bad response: %w", err)
	}
	return nil
}
