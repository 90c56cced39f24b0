package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incdb/internal/api"
	"incdb/internal/engine"
	"incdb/internal/obs"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/store"
)

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client gave up before the answer was ready; net/http has no
// name for it.
const statusClientClosedRequest = 499

// Options configures the service.
type Options struct {
	// Workers sizes the engine pool the certainty oracles shard their
	// valuation enumeration over: 0 means one per CPU, 1 forces the serial
	// reference path (results never depend on it).
	Workers int
	// MaxInFlight bounds concurrently evaluating requests (query and
	// explain); further requests wait, failing with 503 when the client
	// gives up first. Zero means twice the engine worker count — enough to
	// keep the pool busy without unbounded queueing.
	MaxInFlight int
	// MaxWorlds is the default bound on the certainty oracles' valuation
	// enumeration (0 = certain.DefaultMaxWorlds); a request may override it.
	MaxWorlds int
	// SnapshotBytes is the per-session WAL size beyond which a durable
	// server snapshots and compacts (0 = store.DefaultSnapshotBytes);
	// meaningful only after EnableDurability.
	SnapshotBytes int64
	// StaleWait is how long a replica blocks for replication to cover a
	// request's consistency token before answering 412 stale_replica
	// (0 = 2s).
	StaleWait time.Duration
	// ShutdownGrace is how long ListenAndServe waits for in-flight
	// requests after its context is canceled (0 = 5s).
	ShutdownGrace time.Duration
	// WriteTimeout bounds how long one response may take to write (0 =
	// unlimited, the default: oracle queries may legitimately run long).
	// The WAL streaming endpoint is exempt — it writes indefinitely by
	// design and clears its own deadline.
	WriteTimeout time.Duration
	// SlowQuery is the elapsed-time threshold above which an evaluated
	// query is logged (query text, proc, worlds enumerated, plan summary)
	// and counted in incdb_slow_queries_total. Zero disables the log.
	SlowQuery time.Duration
	// Logger receives the server's structured log records (slow queries,
	// request-scoped warnings); nil means slog.Default().
	Logger *slog.Logger
	// TraceSample is the distributed-tracing head-sampling rate in [0, 1]:
	// the fraction of fresh traces kept. Zero disables tracing entirely
	// (the default for embedded servers; incdbd passes 1.0 unless
	// -trace-sample says otherwise). While tracing is enabled, slow and
	// failed requests are always captured regardless of the rate, and a
	// request arriving with a traceparent header keeps its carried
	// sampling decision — every server of a fleet agrees on one trace.
	TraceSample float64
}

func (o Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 2 * engine.Options{Workers: o.Workers}.WorkerCount()
}

func (o Options) staleWait() time.Duration {
	if o.StaleWait > 0 {
		return o.StaleWait
	}
	return 2 * time.Second
}

func (o Options) shutdownGrace() time.Duration {
	if o.ShutdownGrace > 0 {
		return o.ShutdownGrace
	}
	return 5 * time.Second
}

// Server is the incdbd service: named sessions, each owning one incomplete
// database and one version-guarded prepared-plan cache. All handlers are
// safe for concurrent use; database mutation (load or replicated apply)
// excludes running queries per session via an RWMutex, so queries always
// see a consistent database and cache guards are checked under the same
// read lock.
type Server struct {
	opts    Options
	start   time.Time
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request-ID middleware
	logger  *slog.Logger

	// obs is the server's metrics surface (see metrics.go); waiting counts
	// requests blocked on admission, reqID numbers requests for the logs.
	obs     *metrics
	waiting atomic.Int64
	reqID   atomic.Uint64

	// tracer samples and stores distributed-trace spans (see trace.go);
	// nil when Options.TraceSample is zero — every span call site is
	// nil-safe, so a tracing-off server pays nothing.
	tracer *obs.Tracer

	sem      chan struct{}
	inflight atomic.Int64

	// st is the durability subsystem; nil for a memory-only server. Set
	// once by EnableDurability before serving.
	st *store.Store

	// repl is the replication subsystem; nil unless this server follows a
	// primary. Set by StartFollow before serving — a non-nil repl makes
	// every load handler read-only — and atomically cleared by a promotion,
	// which flips the follower into a writable primary mid-serve.
	repl atomic.Pointer[replicator]

	// epoch is the server's replication epoch: the highest epoch it has
	// written under, recovered, or observed. fenced latches when a server
	// that believed itself primary observes a higher epoch (a promoted
	// successor exists): it then refuses every write with
	// fenced_stale_primary, so a revived old primary can never accept a
	// divergent mutation. promoteMu serializes promotions.
	epoch     atomic.Uint64
	fenced    atomic.Bool
	promoteMu sync.Mutex

	// draining latches when graceful shutdown begins: new mutations are
	// refused (shutting_down) while in-flight ones finish and the final
	// fsync drain runs.
	draining atomic.Bool

	mu       sync.RWMutex
	sessions map[string]*session
}

// session is one named database with its prepared-plan and oracle-result
// caches, plus — when durability is enabled — its write-ahead log.
type session struct {
	name    string
	created time.Time
	queries atomic.Uint64

	// mu orders mutation against evaluation: load (append or replace) and
	// replicated apply take the write side, query/explain the read side.
	// The prepared state handed out by prep is itself safe for concurrent
	// execution; it is looked up and executed inside one read-side hold,
	// which is what lets a lookup advance it in place after an append.
	mu      sync.RWMutex
	db      *relation.Database
	prep    *plan.PrepCache
	results *resultCache
	warm    warmSet

	// vecCh is closed (and replaced) whenever the version vector advances;
	// consistency-token waiters block on it. Guarded by mu.
	vecCh chan struct{}

	// replSeq is the last primary WAL sequence number applied to this
	// session (replica mode only; on a durable replica it mirrors
	// log.Seq()).
	replSeq atomic.Uint64

	// logMu serializes durable commits: it is held across the in-memory
	// apply (which takes mu) and the WAL buffer (which does not), so the
	// log order is exactly the apply order; the group-commit fsync
	// (SessionLog.Sync) runs outside both, so concurrent loads batch into
	// shared fsyncs while queries proceed under the read lock. It also
	// covers snapshot installs and consistent snapshot exports.
	logMu sync.Mutex
	log   *store.SessionLog // nil when the server is memory-only
}

// mutate runs apply under the session write lock, drops every cached
// result — even when apply fails, since a replayed record whose vector
// differs from the logged one is reported after it was applied — and, when
// apply succeeds, wakes the consistency-token waiters. Every mutation of a
// session goes through here — a primary's commit, a replica's bootstrap and
// each record it applies — so a replica advances its vector by the same
// code the primary does. Prepared plans catch up on their next lookup.
func (sess *session) mutate(apply func() error) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	err := apply()
	sess.results.clear()
	if err != nil {
		return err
	}
	close(sess.vecCh)
	sess.vecCh = make(chan struct{})
	return nil
}

// install makes db the session database and starts both caches afresh.
// Replacing the database wholesale replaces every relation object, so no
// cached prepared plan can survive its pointer guard: dropping the cache
// beats letting stale entries pin the old database's frozen
// materializations. Caller holds the write lock (mutate), except while
// the session is still private to its constructor.
func (sess *session) install(db *relation.Database) {
	sess.db = db
	sess.prep = plan.NewPrepCache(plan.DefaultPrepCacheCap)
	sess.results = newResultCache()
}

// apply runs one logged record on the live database through
// store.ApplyRecord — the path a primary's append and promotion marker and
// every record a replica tails take alike — then installs the database
// afresh after a replace or restore, which rebuilt it in place. Caller
// holds the write lock (mutate).
func (sess *session) apply(rec *store.Record) error {
	if err := store.ApplyRecord(sess.db, rec); err != nil {
		return err
	}
	if rec.Op == store.OpReplace || rec.Op == store.OpRestore {
		sess.install(sess.db)
	}
	return nil
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	s := &Server{
		opts:     opts,
		start:    time.Now(),
		sessions: map[string]*session{},
		sem:      make(chan struct{}, opts.maxInFlight()),
		logger:   opts.Logger,
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if opts.TraceSample > 0 {
		s.tracer = obs.NewTracer(opts.TraceSample, obs.DefaultSpanCap)
	}
	s.obs = newMetrics(s)
	s.mux = http.NewServeMux()
	// Every data route is session-scoped: the session name lives in the path.
	s.mux.HandleFunc("POST /v1/sessions/{session}/load", s.handleLoad)
	s.mux.HandleFunc("POST /v1/sessions/{session}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/sessions/{session}/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/sessions/{session}/status", s.handleSessionStatus)
	s.mux.HandleFunc("GET /v1/sessions/{session}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/sessions/{session}/wal", s.handleWAL)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.handler = s.withRequestID(s.mux)
	return s
}

// newSession builds an empty session (no database, no log attached).
func (s *Server) newSession(name string) *session {
	sess := &session{
		name:    name,
		created: time.Now(),
		vecCh:   make(chan struct{}),
	}
	sess.install(relation.NewDatabase())
	return sess
}

// EnableDurability attaches a data directory: every session already on
// disk is recovered — database contents, version vectors, null identities
// restored to the last acknowledged load, prepared-plan cache re-warmed
// from the snapshot's warm keys — and every future load is written ahead
// and fsync'd before it is acknowledged. Must be called before serving.
func (s *Server) EnableDurability(dir string) error {
	st, err := store.Open(dir, store.Options{SnapshotBytes: s.opts.SnapshotBytes, Observer: s.obs.wal})
	if err != nil {
		return err
	}
	recovered, err := st.Recover()
	if err != nil {
		return err
	}
	s.st = st
	for _, rec := range recovered {
		sess := s.newSession(rec.Name)
		sess.db = rec.DB
		sess.log = rec.Log
		sess.replSeq.Store(rec.Log.Seq())
		s.sessions[rec.Name] = sess
		s.warmSession(sess, rec.Warm)
		// Resume under the highest recovered epoch (not observeEpoch: our
		// own history is not evidence of a successor).
		s.raiseEpoch(rec.Epoch)
		log.Printf("server: recovered session %q (%d relations, wal seq %d, epoch %d) and warmed %d plan(s)",
			rec.Name, len(rec.DB.Names()), rec.Log.Seq(), rec.Epoch, len(rec.Warm))
	}
	return nil
}

// Epoch returns the server's replication epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// role reports the server's failover role for status and probes.
func (s *Server) role() string {
	switch {
	case s.repl.Load() != nil:
		return api.RoleReplica
	case s.fenced.Load():
		return api.RoleFenced
	default:
		return api.RolePrimary
	}
}

// raiseEpoch lifts the server's epoch to e when e is higher, reporting the
// epoch it replaced. On its own it is deliberate adoption without the
// fencing side effect — an operator-directed snapshot restore, our own
// recovered history.
func (s *Server) raiseEpoch(e uint64) (from uint64, raised bool) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return cur, false
		}
		if s.epoch.CompareAndSwap(cur, e) {
			return cur, true
		}
	}
}

// observeEpoch folds an externally observed epoch into the server's. A
// higher epoch than our own means another server has been promoted: a
// replica simply adopts it (its new primary writes under it), but a server
// that believed itself primary has been superseded and fences itself
// read-only — the write-safety half of epoch fencing.
func (s *Server) observeEpoch(e uint64) {
	if cur, raised := s.raiseEpoch(e); raised && s.repl.Load() == nil {
		s.fenced.Store(true)
		log.Printf("server: observed epoch %d above own %d; fencing writes (a promoted primary exists)", e, cur)
	}
}

// fenceCheck gates every mutation: it folds the client's observed epoch in
// (which may fence us) and refuses if this server is a fenced stale
// primary.
func (s *Server) fenceCheck(reqEpoch uint64) *api.Error {
	if reqEpoch > 0 {
		s.observeEpoch(reqEpoch)
	}
	if s.fenced.Load() {
		return api.Errorf(http.StatusConflict, api.CodeFencedStalePrimary,
			"this server is fenced at epoch %d (a newer primary exists); write to the current primary", s.epoch.Load())
	}
	return nil
}

// handlePromote flips a caught-up follower into the writable primary at
// epoch+1: replication is stopped and drained (every shipped record
// applied and mirrored), then each session durably commits an OpEpoch
// record under the new epoch — the promotion marker that replicates to any
// future follower and fences the old primary's unwritten future.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req api.PromoteRequest
	if err := decode(w, r, &req, true); err != nil {
		s.fail(w, err)
		return
	}
	if s.draining.Load() {
		s.fail(w, api.Errorf(http.StatusServiceUnavailable, api.CodeShuttingDown,
			"server is shutting down"))
		return
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	repl := s.repl.Load()
	if repl == nil {
		if s.fenced.Load() {
			s.fail(w, api.Errorf(http.StatusConflict, api.CodeFencedStalePrimary,
				"this server is a fenced stale primary (epoch %d); its history may have diverged — re-follow the current primary instead of promoting it", s.epoch.Load()))
			return
		}
		// Already primary: idempotent success at the current epoch.
		writeJSON(w, http.StatusOK, api.PromoteResponse{Epoch: s.epoch.Load(), Sessions: map[string]uint64{}})
		return
	}
	if !req.Force {
		if lag := repl.lag(); lag != "" {
			s.fail(w, api.Errorf(http.StatusConflict, api.CodeNotCaughtUp,
				"not caught up with primary (%s); retry shortly or promote with force", lag))
			return
		}
	}
	// Stop replication and drain its tail: after stop() returns, no follow
	// loop is applying records and every mirrored record's fsync has
	// completed — the epoch records commit onto a quiesced log.
	repl.stop()
	newEpoch := s.epoch.Load() + 1
	resp := api.PromoteResponse{Epoch: newEpoch, Sessions: map[string]uint64{}}
	sessions := s.sessionList()
	for _, sess := range sessions {
		// The promotion marker is an ordinary commit of an OpEpoch record
		// under the raised log epoch; it carries the session's current vector
		// (so replay's vector check still holds at that position). Raising
		// the epoch outside the commit lock is safe: replication is stopped
		// and loads are still refused, so nothing else writes this log.
		if sess.log != nil {
			sess.log.SetEpoch(newEpoch)
		}
		_, seq, aerr := s.commit(sess, obs.SpanFromContext(r.Context()), &store.Record{Op: store.OpEpoch}, nil)
		if aerr != nil {
			// The session's log refused (e.g. fail-stopped): promotion is
			// aborted half-way — some sessions may already carry the new
			// epoch, which is safe (epochs only fence the old primary) but
			// this server stays a non-writable follower-without-a-feed until
			// the operator resolves the log. Surface it.
			s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
				"promote: session %q epoch record failed: %v", sess.name, aerr.Message))
			return
		}
		resp.Sessions[sess.name] = seq
	}
	s.epoch.Store(newEpoch)
	s.fenced.Store(false)
	s.repl.Store(nil)
	log.Printf("server: promoted to primary at epoch %d (%d session(s))", newEpoch, len(sessions))
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness probe: the process is up and serving.
// (Recovery runs before the listener opens, so a reachable server has
// finished it.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.HealthResponse{Ok: true})
}

// handleReadyz is the readiness probe: 200 when this server should receive
// traffic — recovery finished (implied by serving), not draining for
// shutdown, and (on a follower) replication caught up with the primary as
// far as it can tell. Load balancers and the failover client probe this
// without deserializing full status.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.HealthResponse{Ok: false, Reason: "shutting down"})
		return
	}
	if repl := s.repl.Load(); repl != nil {
		if lag := repl.lag(); lag != "" {
			writeJSON(w, http.StatusServiceUnavailable, api.HealthResponse{Ok: false, Reason: lag})
			return
		}
	}
	writeJSON(w, http.StatusOK, api.HealthResponse{Ok: true})
}

// Close releases the durability subsystem's file handles (after serving
// stops); a memory-only server has nothing to close.
func (s *Server) Close() error {
	if s.st == nil {
		return nil
	}
	return s.st.Close()
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// maxBodyBytes caps request bodies (load payloads dominate); beyond it
// the JSON decoder fails with a 400 instead of buffering without bound.
const maxBodyBytes = 64 << 20

// ListenAndServe serves until ctx is canceled, then shuts down gracefully:
// new mutations are refused first (shutting_down — nothing new enters the
// WAL while we leave), then the listener closes and in-flight requests get
// ShutdownGrace to finish, then a final fsync drain makes every buffered
// WAL record durable (replica mirrors fsync asynchronously, so records can
// be buffered with no load handler waiting on them). Header-read and idle
// timeouts guard against slow-client connection exhaustion; WriteTimeout
// is off by default, since oracle queries may legitimately run long — when
// enabled, the WAL streaming endpoint exempts itself (it writes
// indefinitely by design).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      s.opts.WriteTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), s.opts.shutdownGrace())
	defer cancel()
	serr := hs.Shutdown(sctx)
	s.drainLogs()
	if serr != nil {
		return fmt.Errorf("server: shutdown: %w", serr)
	}
	return nil
}

// drainLogs fsyncs every session's buffered WAL records — the final drain
// of graceful shutdown.
func (s *Server) drainLogs() {
	for _, sess := range s.sessionList() {
		if sess.log == nil {
			continue
		}
		if err := sess.log.Sync(sess.log.Seq()); err != nil {
			log.Printf("server: shutdown drain %q: %v", sess.name, err)
		}
	}
}

// acquire is the admission stage: it takes an evaluation slot (the caller
// releases it), respecting the request context. A free slot is taken even
// when the context is already done (the fast path below never loses that
// race), so the error always means the caller actually waited: it reports
// the live in-flight gauge and the context's own cause so a client-side
// timeout is not misread as server saturation.
func (s *Server) acquire(ctx context.Context) *api.Error {
	wsp := obs.SpanFromContext(ctx).StartChild("admission.wait")
	defer wsp.End()
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	default:
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return api.Errorf(http.StatusServiceUnavailable, api.CodeOverloaded,
			"no evaluation slot (%d of %d in flight): %v",
			s.inflight.Load(), s.opts.maxInFlight(), ctx.Err())
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// sessionFor returns the named session, or nil.
func (s *Server) sessionFor(name string) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[name]
}

// resolve returns the session the request path names.
func (s *Server) resolve(r *http.Request) (*session, *api.Error) {
	name := r.PathValue("session")
	if sess := s.sessionFor(name); sess != nil {
		return sess, nil
	}
	return nil, api.Errorf(http.StatusNotFound, api.CodeSessionNotFound,
		"unknown session %q (load data first)", name)
}

// sessionList returns every session, sorted by name.
func (s *Server) sessionList() []*session {
	s.mu.RLock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ensureSession returns the named session, creating an empty one on first
// use. On a durable server the session's write-ahead log is attached (and
// its directory created) here.
func (s *Server) ensureSession(name string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[name]; ok {
		return sess, nil
	}
	sess := s.newSession(name)
	if s.st != nil {
		l, err := s.st.Session(name)
		if err != nil {
			return nil, err
		}
		// A session born on a promoted (or recovered) server writes under
		// the server's epoch from its first record.
		l.SetEpoch(s.epoch.Load())
		sess.log = l
	}
	s.sessions[name] = sess
	return sess, nil
}

// Preload loads data (raparse text) into the named session before serving;
// it returns the number of relations loaded. Used by incdbd -load. On a
// durable server the preload commits through the WAL like any other load.
func (s *Server) Preload(session, data string) (int, error) {
	resp, aerr := s.load(nil, session, store.OpReplace, data)
	if aerr != nil {
		return 0, aerr
	}
	return len(resp.Relations), nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req api.LoadRequest
	if err := decode(w, r, &req, false); err != nil {
		s.fail(w, err)
		return
	}
	if s.draining.Load() {
		s.fail(w, api.Errorf(http.StatusServiceUnavailable, api.CodeShuttingDown,
			"server is shutting down; load elsewhere"))
		return
	}
	if aerr := s.fenceCheck(req.Epoch); aerr != nil {
		s.fail(w, aerr)
		return
	}
	if repl := s.repl.Load(); repl != nil {
		s.fail(w, api.Errorf(http.StatusForbidden, api.CodeReadOnlyReplica,
			"this server follows %s; load data on the primary", repl.primary))
		return
	}
	op := store.OpReplace
	switch {
	case req.Snapshot:
		op = store.OpRestore
	case req.Append:
		op = store.OpAppend
	}
	resp, aerr := s.load(obs.SpanFromContext(r.Context()), r.PathValue("session"), op, req.Data)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// load turns one load mutation — append, replace, or restore from a
// snapshot export (null identifiers and the version vector are preserved,
// and its warm keys re-prepare the working set) — into the record the
// session commits. All but an append to a live session are staged on a
// fresh database outside the write lock: a failed first load leaves no
// session behind, and a replace leaves readers on the old database while it
// parses, and untouched when it fails.
func (s *Server) load(sp *obs.Span, name string, op store.Op, data string) (api.LoadResponse, *api.Error) {
	rec := &store.Record{Op: op, Data: data}
	if op == store.OpAppend {
		if sess := s.sessionFor(name); sess != nil {
			resp, _, aerr := s.commit(sess, sp, rec, nil)
			return resp, aerr
		}
		// Appending to a session that does not exist yet is its first load.
		rec.Op = store.OpReplace
	}
	// A restore keeps its snapshot: the epoch and warm keys come from it.
	var snap *store.Snapshot
	db := relation.NewDatabase()
	var err error
	if rec.Op == store.OpRestore {
		if snap, err = store.DecodeSnapshot(strings.NewReader(data)); err == nil {
			db, err = snap.Database()
		}
	} else {
		err = store.ApplyRecord(db, rec)
	}
	if err != nil {
		return api.LoadResponse{}, api.Errorf(http.StatusBadRequest, api.CodeBadQuery, "%v", err)
	}
	sess, err := s.ensureSession(name)
	if err != nil {
		return api.LoadResponse{}, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err)
	}
	if snap != nil {
		// An explicit restore adopts the snapshot's epoch (deliberate operator
		// action, not evidence of a concurrent successor — no fencing): the
		// OpRestore record and everything after it write at or above it.
		if sess.log != nil {
			sess.log.SetEpoch(snap.Epoch)
		}
		s.raiseEpoch(snap.Epoch)
	}
	resp, _, aerr := s.commit(sess, sp, rec, db)
	if aerr == nil && snap != nil {
		s.warmSession(sess, snap.Warm)
	}
	return resp, aerr
}

// commit is the one mutation path of a primary: apply rec in memory under
// the write lock and buffer it, with the vector the database then reports,
// under logMu (so log order is apply order), then group-commit the fsync
// outside both locks — commits that arrive while the fsync is in flight
// ride the next one together, and queries never block on the disk — and
// check whether the log wants compacting. A staged database (a first load,
// replace or restore, parsed by load) is installed; any other record goes
// through session.apply, as a replica's tail does, and its error (a
// rejected payload) leaves the session untouched. It returns the
// acknowledgement and the record's sequence number (0 when memory-only).
func (s *Server) commit(sess *session, sp *obs.Span, rec *store.Record, staged *relation.Database) (api.LoadResponse, uint64, *api.Error) {
	asp := sp.StartChild("load.apply")
	sess.logMu.Lock()
	var resp api.LoadResponse
	err := sess.mutate(func() error {
		if staged != nil {
			sess.install(staged)
		} else if err := sess.apply(rec); err != nil {
			return err
		}
		resp = s.loadResponse(sess)
		return nil
	})
	if err != nil {
		sess.logMu.Unlock()
		asp.SetError(err.Error())
		asp.End()
		return api.LoadResponse{}, 0, api.Errorf(http.StatusBadRequest, api.CodeBadQuery, "%v", err)
	}
	asp.End()
	wsp := sp.StartChild("wal.commit")
	var seq uint64
	if sess.log != nil {
		// The wal.commit span context rides in the record: replicas parent
		// their apply spans on it, and the flush leader reports the fsync
		// against it. Only sampled traces travel — replicas drop unsampled
		// contexts anyway (StartLinked gates on the flag), so unsampled
		// requests ship no traceparent bytes in their durable records.
		trace := ""
		if wsp.Sampled() {
			trace = wsp.Context().TraceParent()
		}
		seq, err = sess.log.BufferTrace(rec.Op, rec.Data, resp.Versions, trace)
	}
	sess.logMu.Unlock()
	if err == nil && sess.log != nil {
		err = sess.log.Sync(seq)
	}
	if err != nil {
		// The mutation is applied in memory but not durable; surface that
		// honestly — the client must not treat this load as acknowledged.
		aerr := api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"load applied but not durable (wal commit failed): %v", err)
		wsp.SetError(aerr.Message)
		wsp.End()
		return api.LoadResponse{}, 0, aerr
	}
	wsp.Attr("seq", strconv.FormatUint(seq, 10))
	wsp.End()
	s.snapshotIfNeeded(sess)
	return resp, seq, nil
}

// snapshotIfNeeded takes a compacting snapshot when the session's WAL has
// outgrown the threshold.
func (s *Server) snapshotIfNeeded(sess *session) {
	if sess.log == nil || s.st == nil {
		return
	}
	if sess.log.WalBytes() < s.st.SnapshotBytes() {
		return
	}
	sess.logMu.Lock()
	defer sess.logMu.Unlock()
	if sess.log.WalBytes() < s.st.SnapshotBytes() {
		return // another commit already compacted
	}
	snap, err := s.snapshotOf(sess)
	if err != nil {
		log.Printf("server: snapshot session %q: %v", sess.name, err)
		return
	}
	if err := sess.log.InstallSnapshot(snap); err != nil {
		log.Printf("server: snapshot session %q: %v", sess.name, err)
	}
}

// snapshotOf renders a consistent snapshot of the session: database text,
// version vector, null allocator and warm keys under the read lock, with
// the WAL sequence number consistent because the caller holds logMu (no
// load can be mid-commit).
func (s *Server) snapshotOf(sess *session) (*store.Snapshot, error) {
	var seq uint64
	epoch := s.epoch.Load()
	if sess.log != nil {
		seq = sess.log.Seq()
		epoch = sess.log.Epoch()
	} else {
		seq = sess.replSeq.Load()
	}
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	snap, err := store.TakeSnapshot(sess.name, sess.db, seq, sess.warm.snapshot())
	if err != nil {
		return nil, err
	}
	snap.Epoch = epoch
	return snap, nil
}

// handleSnapshot is the read-only snapshot export: the same encoding the
// durable store writes, served over HTTP so a fresh replica (or incdbctl)
// can bootstrap a session from a running server via the snapshot-load
// path. Works on memory-only servers too (the sequence number is then 0).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, aerr := s.resolve(r)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	sess.logMu.Lock()
	snap, err := s.snapshotOf(sess)
	sess.logMu.Unlock()
	if err != nil {
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := snap.EncodeTo(w); err != nil {
		log.Printf("server: snapshot export %q: %v", sess.name, err)
	}
}

// handleWAL streams a session's write-ahead log from a given position:
// GET /v1/sessions/{name}/wal?from=<seq> writes every durable record with
// a sequence number greater than from as a length-prefixed CRC-checked
// frame (the WAL's own on-disk framing), then blocks and keeps streaming
// records as they commit — the replication feed a follower tails. When the
// requested position was already compacted into a snapshot the response is
// 410 wal_gap and the follower must re-bootstrap from /snapshot.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	sess, aerr := s.resolve(r)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	if sess.log == nil {
		s.fail(w, api.Errorf(http.StatusConflict, api.CodeNotDurable,
			"session %q has no write-ahead log (server is memory-only); replication needs -data-dir", sess.name))
		return
	}
	from := uint64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad from=%q: %v", v, err))
			return
		}
		from = n
	}
	tail, err := sess.log.TailFrom(from)
	if err != nil {
		s.fail(w, api.Errorf(http.StatusGone, api.CodeWALGap,
			"wal position %d compacted away (snapshot covers seq %d); re-bootstrap from the snapshot",
			from, sess.log.SnapshotSeq()))
		return
	}
	defer tail.Close()
	// The stream writes for as long as the follower tails; exempt it from
	// any server-wide -write-timeout (best-effort — not every
	// ResponseWriter supports deadlines).
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for {
		frame, _, err := tail.Next(r.Context())
		if err != nil {
			// Client gone, or the log compacted past the tail: close the
			// stream; the follower reconnects and resolves (a reconnect
			// behind the snapshot gets 410 and re-bootstraps).
			return
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

// vectorCovers reports whether the vector have is at least as new as want
// for every relation want mentions.
func vectorCovers(have, want map[string]uint64) bool {
	for name, v := range want {
		if have[name] < v {
			return false
		}
	}
	return true
}

// waitCovered blocks until the session's version vector covers the
// consistency token. On a primary an uncovered token fails immediately
// (its vector is authoritative — the token came from another history, e.g.
// a wholesale replace reset the counters); on a replica the request waits
// up to StaleWait for replication to catch up before failing with 412
// stale_replica, so reads are monotonic across the fleet.
func (s *Server) waitCovered(ctx context.Context, sess *session, want map[string]uint64) *api.Error {
	if len(want) == 0 {
		return nil
	}
	deadline := time.NewTimer(s.opts.staleWait())
	defer deadline.Stop()
	for {
		sess.mu.RLock()
		have := sess.db.Versions()
		ch := sess.vecCh
		sess.mu.RUnlock()
		if vectorCovers(have, want) {
			return nil
		}
		stale := api.Errorf(http.StatusPreconditionFailed, api.CodeStaleReplica,
			"session vector %v does not cover consistency token %v", have, want)
		if s.repl.Load() == nil {
			return stale
		}
		select {
		case <-ch:
		case <-deadline.C:
			return stale
		case <-ctx.Done():
			return stale
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := api.StatusResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       engine.Options{Workers: s.opts.Workers}.WorkerCount(),
		MaxInFlight:   s.opts.maxInFlight(),
		InFlight:      int(s.inflight.Load()),
		Role:          s.role(),
		Epoch:         s.epoch.Load(),
	}
	if s.st != nil {
		resp.DataDir = s.st.Dir()
	}
	if repl := s.repl.Load(); repl != nil {
		resp.Replication = repl.status()
	}
	for _, sess := range s.sessionList() {
		resp.Sessions = append(resp.Sessions, s.sessionStatusOf(sess))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionStatus reports one session's status.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, aerr := s.resolve(r)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, s.sessionStatusOf(sess))
}

func (s *Server) sessionStatusOf(sess *session) api.SessionStatus {
	sess.mu.RLock()
	st := api.SessionStatus{
		Name:        sess.name,
		CreatedAt:   sess.created.UTC().Format(time.RFC3339),
		Queries:     sess.queries.Load(),
		Versions:    sess.db.Versions(),
		Relations:   relationStatuses(sess.db),
		Cache:       sess.prep.Stats(),
		ResultCache: sess.results.stats(),
	}
	if sess.log != nil {
		d := sess.log.Stats()
		st.Durability = &d
	}
	sess.mu.RUnlock()
	return st
}

// loadResponse renders a load acknowledgement for the session's current
// state; caller holds the session lock.
func (s *Server) loadResponse(sess *session) api.LoadResponse {
	return api.LoadResponse{
		Session:   sess.name,
		Relations: relationStatuses(sess.db),
		Versions:  sess.db.Versions(),
		Epoch:     s.epoch.Load(),
	}
}

func relationStatuses(db *relation.Database) []api.RelationStatus {
	var out []api.RelationStatus
	for _, name := range db.Names() {
		r := db.MustRelation(name)
		out = append(out, api.RelationStatus{
			Name:    name,
			Arity:   r.Arity(),
			Rows:    r.Len(),
			Version: r.Version(),
		})
	}
	return out
}

// decode reads the JSON request body into into. allowEmpty admits an
// absent body (a bare POST /v1/promote), leaving into at its zero value.
func decode(w http.ResponseWriter, r *http.Request, into any, allowEmpty bool) *api.Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil && !(allowEmpty && err == io.EOF) {
		return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}

// writeJSON encodes body before writing it, so every response carries a
// Content-Length and a body that fails to encode is a 500, not a truncated
// 200.
func writeJSON(w http.ResponseWriter, code int, body any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		writeErr(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "encode response: %v", err))
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody writes an encoded JSON response in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // the client is gone; nothing left to tell it
}

// writeErr writes the uniform error envelope:
// {"error":{"code":"...","message":"..."}}.
func writeErr(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, e.Status, api.ErrorEnvelope{Error: e})
}
