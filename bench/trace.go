package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/server"
	"incdb/internal/store"
	"incdb/internal/translate"
)

// The traced run replays one operation sample on three rungs, with one
// sequential client so nothing contends, and wraps every call in a span:
//
//	A  server.Client against a real incdbd        (client, http, and below)
//	B  Server.Handler().ServeHTTP in this process (server and below)
//	C  the module calls the handlers make, in the handlers' order, on a
//	   bare relation.Database with a real WAL     (each module alone)
//
// All three start from the same state: the database loaded, the warm-up
// prefix applied. A layer's self time is its rung minus the rung below:
// http = A - B, server = B - ΣC. Tracing inside incdbd is a later issue;
// these spans are recorded from outside the program, around its public
// functions.

// span is one timed call. Spans of one operation share OpID; a rung's root
// span names the root of the rung above as its parent, so the tree reads
// client -> handler -> modules although the three were measured one after
// the other.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced warm-up of each rung runs through the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, opID int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: opID, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// traceResult is what the traced run adds to the report.
type traceResult struct {
	spans         []span
	sample        []op // the operations replayed, indexed by span OpID
	responseBytes int64
	coldPrepare   []time.Duration // compile+prepare on a cold cache, per distinct plan
	workers1      time.Duration   // WithNulls over the workload's cert queries, Workers=1
	workers2      time.Duration   // the same, Workers=2
}

// tracedRun replays in.traced on the three rungs, operation by operation:
// each operation runs on all three before the next starts, so the three
// measurements of one operation share whatever the box is doing at that
// moment, and B and C take turns going first, so that neither always runs
// on the caches the other warmed.
func tracedRun(cfg runConfig) (*traceResult, error) {
	s, _, err := setUp(cfg, "rung-a")
	if err != nil {
		return nil, err
	}
	defer s.tearDown()
	in := s.in
	res := &traceResult{sample: in.traced}

	// The process-wide plan cache is still cold for this workload's queries
	// here: nothing above planned anything in this process.
	res.coldPrepare = coldPrepares(in)

	hr, err := newHandlerRung(cfg, in)
	if err != nil {
		return nil, err
	}
	defer hr.close()
	m, err := newModules(cfg, in)
	if err != nil {
		return nil, err
	}
	defer m.close()

	tr := &tracer{t0: time.Now()}
	cl := server.NewClient(s.srv.base, sessionName)
	for i := range in.traced {
		o := &in.traced[i]
		a := tr.start("client.roundtrip", 0, i)
		if o.write {
			_, err = cl.Load(o.text, true)
		} else {
			_, err = cl.Query(o.text, o.proc, false, 0)
		}
		tr.end(a)
		if err != nil {
			return nil, fmt.Errorf("rung A op %d: %w", i, err)
		}

		var b, c int
		var hitB, hitC bool
		var respBody []byte
		rungB := func() error {
			b, hitB, respBody, err = hr.do(tr, o, a, i)
			return err
		}
		rungC := func() error {
			c = tr.start("modules", 0, i)
			hitC, err = m.do(tr, o, c, i)
			tr.end(c)
			return err
		}
		first, second := rungB, rungC
		if i%2 == 1 {
			first, second = rungC, rungB
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		tr.spans[c-1].Parent = b
		if hitB != hitC {
			return nil, fmt.Errorf("traced op %d: the server's result cache hit=%v, rung C's mirror of it hit=%v", i, hitB, hitC)
		}

		// What server.Client does around the wire, on the same bytes.
		codec := tr.start("client.codec", a, i)
		requestBody(o, hr.vec)
		if o.write {
			json.Unmarshal(respBody, new(api.LoadResponse))
		} else {
			json.Unmarshal(respBody, new(api.QueryResponse))
		}
		tr.end(codec)
		res.responseBytes += int64(len(respBody))
	}
	res.workers1, res.workers2 = workerSpeedup(in)
	res.spans = tr.spans
	return res, nil
}

// planned maps a request to the expression and mode the server plans for
// it: the query itself for sql, naive and the oracles (which evaluate it
// naively per world), its Figure 2(b) rewriting for plus and poss.
func planned(q algebra.Expr, proc string) (algebra.Expr, algebra.Mode, error) {
	switch proc {
	case "sql":
		return q, algebra.ModeSQL, nil
	case "plus", "poss":
		plus, poss, err := translate.Fig2b(q)
		if proc == "poss" {
			return poss, algebra.ModeNaive, err
		}
		return plus, algebra.ModeNaive, err
	default:
		return q, algebra.ModeNaive, nil
	}
}

// coldPrepares times compile + prepare, on an empty cache, of each distinct
// (expression, mode) the workload's operations have the planner compile.
func coldPrepares(in *inputs) []time.Duration {
	var out []time.Duration
	seen := map[string]bool{}
	for _, ops := range [][]op{in.warmup, in.ops} {
		for _, o := range ops {
			if o.write {
				continue
			}
			q, mode, err := planned(in.queries[o.qid].expr, o.proc)
			key := fmt.Sprint(mode, q)
			if err != nil || seen[key] {
				continue
			}
			seen[key] = true
			t0 := time.Now()
			plan.NewPrepCache(0).Get(in.db, q, mode, false)
			out = append(out, time.Since(t0))
		}
	}
	return out
}

// workerSpeedup times certain.WithNulls with one worker and with two (best
// of three each, prepared plans shared) over the workload's cert queries
// whose valuation space is large enough for the engine to shard at all.
func workerSpeedup(in *inputs) (w1, w2 time.Duration) {
	seen := map[int]bool{}
	prep := plan.NewPrepCache(0)
	for _, o := range in.ops {
		if o.write || o.proc != "cert" || seen[o.qid] {
			continue
		}
		seen[o.qid] = true
		q := in.queries[o.qid].expr
		if space, err := certain.NewSpaceForQuery(in.db, q, certain.Options{}); err != nil || space.Size() < engine.MinParallel {
			continue
		}
		best := func(workers int) time.Duration {
			var b time.Duration
			for i := 0; i < 4; i++ {
				t0 := time.Now()
				certain.WithNulls(in.db, q, certain.Options{Workers: workers, Prep: prep})
				if d := time.Since(t0); i > 0 && (b == 0 || d < b) { // i == 0 warms prep
					b = d
				}
			}
			return b
		}
		w1 += best(1)
		w2 += best(2)
	}
	return w1, w2
}

// post runs one request through h and returns the recorded response.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// mergeVector folds a response's version vector into a consistency token,
// as server.Client does.
func mergeVector(token, versions map[string]uint64) {
	for k, v := range versions {
		token[k] = max(token[k], v)
	}
}

// requestBody renders the JSON body server.Client sends for o, carrying the
// consistency token vec.
func requestBody(o *op, vec map[string]uint64) []byte {
	var body any
	if o.write {
		body = api.LoadRequest{Data: o.text, Append: true}
	} else {
		body = api.QueryRequest{Query: o.text, Proc: o.proc, ReadAfter: vec}
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs of strings and maps
	}
	return data
}

// handlerRung is rung B: an in-process durable server, driven through its
// http.Handler with the consistency token a client would carry.
type handlerRung struct {
	h     http.Handler
	vec   map[string]uint64
	close func()
}

func newHandlerRung(cfg runConfig, in *inputs) (*handlerRung, error) {
	dir, err := newRunDir(cfg.workDir, "rung-b")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Workers: serverWorkers, MaxInFlight: maxInFlight, SnapshotBytes: snapshotBytes})
	if err := srv.EnableDurability(dir); err != nil {
		removeRunDir(dir)
		return nil, err
	}
	hr := &handlerRung{h: srv.Handler(), vec: map[string]uint64{}, close: func() {
		srv.Close()
		removeRunDir(dir)
	}}
	loadBody, _ := json.Marshal(api.LoadRequest{Data: in.dbText})
	if rec := post(hr.h, "/v1/sessions/"+sessionName+"/load", loadBody); rec.Code != http.StatusOK {
		hr.close()
		return nil, fmt.Errorf("rung B load: %s", rec.Body)
	}
	for i := range in.warmup {
		if _, _, _, err := hr.do(nil, &in.warmup[i], 0, 0); err != nil {
			hr.close()
			return nil, err
		}
	}
	return hr, nil
}

// do serves one operation and returns its span, whether the result cache
// answered it (which rung C mirrors), and the response body.
func (hr *handlerRung) do(t *tracer, o *op, parent, opID int) (id int, hit bool, respBody []byte, err error) {
	path := "/v1/sessions/" + sessionName + "/query"
	if o.write {
		path = "/v1/sessions/" + sessionName + "/load"
	}
	reqBody := requestBody(o, hr.vec)
	id = t.start("server.handler", parent, opID)
	rec := post(hr.h, path, reqBody)
	t.end(id)
	if rec.Code != http.StatusOK {
		return 0, false, nil, fmt.Errorf("rung B op %d: %s", opID, rec.Body)
	}
	var out struct {
		Cached   bool              `json:"cached"`
		Versions map[string]uint64 `json:"versions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return 0, false, nil, err
	}
	mergeVector(hr.vec, out.Versions)
	return id, out.Cached, rec.Body.Bytes(), nil
}

// modules is rung C: what a session holds, without the server - the
// database, its prepared-plan cache, a result cache and a real WAL - and the
// module calls handleQuery and handleLoad make, in their order.
type modules struct {
	db   *relation.Database
	prep *plan.PrepCache
	log  *store.SessionLog
	vec  map[string]uint64
	// results mirrors the server's result cache: keyed by proc and text,
	// valid while no append has happened since (the server's key embeds the
	// version vector) and while among the resultCacheCap newest entries.
	results map[string]cachedResult
	appends int
	puts    int
	close   func()
}

type cachedResult struct {
	results []api.Resultset
	appends int // value of modules.appends when stored
	seq     int // value of modules.puts when stored
}

// resultCacheCap is the server's default result cache capacity.
const resultCacheCap = 256

func newModules(cfg runConfig, in *inputs) (*modules, error) {
	dir, err := newRunDir(cfg.workDir, "rung-c")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{SnapshotBytes: snapshotBytes})
	if err != nil {
		removeRunDir(dir)
		return nil, err
	}
	m := &modules{prep: plan.NewPrepCache(0), results: map[string]cachedResult{}, vec: map[string]uint64{}, close: func() {
		st.Close()
		removeRunDir(dir)
	}}
	if m.log, err = st.Session(sessionName); err == nil {
		m.db, err = raparse.ParseDatabase(strings.NewReader(in.dbText))
	}
	if err == nil {
		_, err = m.log.Append(store.OpReplace, in.dbText, m.db.Versions())
	}
	for i := 0; err == nil && i < len(in.warmup); i++ {
		_, err = m.do(nil, &in.warmup[i], 0, 0)
	}
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// do performs one operation's module calls and reports whether the result
// cache answered it.
func (m *modules) do(t *tracer, o *op, root, opID int) (hit bool, err error) {
	body := requestBody(o, m.vec)
	timed := func(name string, f func()) {
		id := t.start(name, root, opID)
		f()
		t.end(id)
	}
	versions := func() (v map[string]uint64) {
		timed("relation.versions", func() { v = m.db.Versions() })
		return v
	}
	decode := func(into any) (err error) {
		timed("api.decode_request", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(into)
		})
		return err
	}
	encode := func(resp any) {
		timed("api.encode_response", func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetEscapeHTML(false)
			enc.Encode(resp)
		})
	}
	if o.write {
		var req api.LoadRequest
		if err := decode(&req); err != nil {
			return false, err
		}
		resp, err := m.append(timed, versions, req.Data)
		if err != nil {
			return false, err
		}
		encode(resp)
		mergeVector(m.vec, resp.Versions)
		return false, nil
	}

	var req api.QueryRequest
	if err := decode(&req); err != nil {
		return false, err
	}
	// handleQuery reads the vector for the token wait, for the cache key,
	// and for the response; a miss re-keys and re-reads under the
	// evaluation lock.
	versions()
	versions()
	vec := versions()
	key := req.Proc + "|" + req.Query
	cached, ok := m.results[key]
	hit = ok && cached.appends == m.appends && m.puts-cached.seq < resultCacheCap
	if !hit {
		versions()
		vec = versions()
		if cached.results, err = m.evaluate(timed, &req); err != nil {
			return false, err
		}
		m.puts++
		cached.appends, cached.seq = m.appends, m.puts
		m.results[key] = cached
	}
	encode(api.QueryResponse{Session: sessionName, Proc: req.Proc, Query: req.Query, Results: cached.results, Cached: hit, Versions: vec})
	mergeVector(m.vec, vec)
	return hit, nil
}

// append is commitAppend's module calls: parse the rows into the live
// database, frame and fsync the WAL record, compact when the log has
// outgrown the threshold.
func (m *modules) append(timed func(string, func()), versions func() map[string]uint64, data string) (resp api.LoadResponse, err error) {
	timed("raparse.parse_rows", func() { err = raparse.ParseDatabaseInto(strings.NewReader(data), m.db) })
	if err != nil {
		return resp, err
	}
	m.appends++
	resp = api.LoadResponse{Session: sessionName, Versions: versions()}
	for _, name := range m.db.Names() {
		r := m.db.MustRelation(name)
		resp.Relations = append(resp.Relations, api.RelationStatus{Name: name, Arity: r.Arity(), Rows: r.Len(), Version: r.Version()})
	}
	var seq uint64
	timed("store.buffer", func() { seq, err = m.log.BufferTrace(store.OpAppend, data, resp.Versions, "") })
	if err != nil {
		return resp, err
	}
	timed("store.sync", func() { err = m.log.Sync(seq) })
	if err != nil {
		return resp, err
	}
	if m.log.WalBytes() >= snapshotBytes {
		timed("store.snapshot", func() {
			var snap *store.Snapshot
			if snap, err = store.TakeSnapshot(sessionName, m.db, m.log.Seq(), nil); err == nil {
				err = m.log.InstallSnapshot(snap)
			}
		})
	}
	return resp, err
}

// evaluate is Server.evaluate's module calls: parse, validate, then the
// procedure's own path through the prepared-plan cache, and the rendering
// of the answer into wire rows.
func (m *modules) evaluate(timed func(string, func()), req *api.QueryRequest) (results []api.Resultset, err error) {
	var q algebra.Expr
	timed("raparse.parse_query", func() { q, err = raparse.ParseQuery(req.Query) })
	if err != nil {
		return nil, err
	}
	timed("algebra.validate", func() { err = algebra.Validate(q, m.db) })
	if err != nil {
		return nil, err
	}
	var r *relation.Relation
	ptr := plan.NewTrace(false)
	opts := certain.Options{Workers: serverWorkers, Prep: m.prep, Trace: ptr}
	switch req.Proc {
	case "cert":
		timed("certain.with_nulls", func() { r, err = certain.WithNulls(m.db, q, opts) })
	case "inter":
		timed("certain.intersection", func() { r, err = certain.Intersection(m.db, q, opts) })
	default:
		if req.Proc == "plus" || req.Proc == "poss" {
			timed("translate.fig2b", func() {
				var plus, poss algebra.Expr
				if plus, poss, err = translate.Fig2b(q); req.Proc == "plus" {
					q = plus
				} else {
					q = poss
				}
			})
			if err != nil {
				return nil, err
			}
		}
		mode := algebra.ModeNaive
		if req.Proc == "sql" {
			mode = algebra.ModeSQL
		}
		var prep *plan.Prepared
		timed("plan.prep_get", func() { prep = m.prep.Get(m.db, q, mode, false) })
		timed("plan.exec", func() { r = prep.ExecTraced(m.db, ptr) })
	}
	if err != nil {
		return nil, err
	}
	timed("api.render_rows", func() {
		results = []api.Resultset{{Name: req.Proc, Columns: append([]string(nil), r.Attrs()...), Rows: wireRows(r)}}
	})
	return results, nil
}

// rungs is the traced sample's time, summed over the operations keep
// selects: the three rungs, the client's JSON work, and every module span by
// name, with the number of operations that reached each name.
type rungs struct {
	a, b, c, codec time.Duration
	byName         map[string]time.Duration
	reached        map[string]int
}

func sumRungs(spans []span, keep func(opID int) bool) rungs {
	r := rungs{byName: map[string]time.Duration{}, reached: map[string]int{}}
	last := map[string]int{}
	for _, s := range spans {
		if !keep(s.OpID) {
			continue
		}
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "client.roundtrip":
			r.a += d
		case "server.handler":
			r.b += d
		case "client.codec":
			r.codec += d
		case "modules":
		default:
			r.c += d
			r.byName[s.Name] += d
			if op, ok := last[s.Name]; !ok || op != s.OpID {
				r.reached[s.Name]++
				last[s.Name] = s.OpID
			}
		}
	}
	return r
}

// writeTrace writes the spans to <outDir>/<workload>.trace.json.
func writeTrace(cfg runConfig, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), data, 0o644)
}
