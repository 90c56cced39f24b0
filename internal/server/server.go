package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"runtime/pprof"
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
	"incdb/internal/raparse"
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
	// CacheCap is each session's prepared-plan cache capacity
	// (0 = plan.DefaultPrepCacheCap).
	CacheCap int
	// ResultCacheCap is each session's oracle result cache capacity
	// (0 = a server default); see resultCache.
	ResultCacheCap int
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
	// TraceCap bounds the in-memory span ring GET /v1/traces serves from
	// (spans, not traces; 0 = obs.DefaultSpanCap).
	TraceCap int
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
	// execution.
	mu      sync.RWMutex
	db      *relation.Database
	prep    *plan.PrepCache
	results *resultCache
	warm    *warmSet

	// vecCh is closed (and replaced) whenever the version vector advances;
	// consistency-token waiters block on it. Guarded by mu.
	vecCh chan struct{}

	// replSeq is the last primary WAL sequence number applied to this
	// session (replica mode only; on a durable replica it mirrors
	// log.Seq()).
	replSeq atomic.Uint64

	// logMu serializes durable commits: it is held across the in-memory
	// apply (which takes mu) and the WAL Buffer (which does not), so the
	// log order is exactly the apply order; the group-commit fsync
	// (SessionLog.Sync) runs outside both, so concurrent loads batch into
	// shared fsyncs while queries proceed under the read lock. It also
	// covers snapshot installs and consistent snapshot exports.
	logMu sync.Mutex
	log   *store.SessionLog // nil when the server is memory-only
}

// bumpVector wakes consistency-token waiters after a mutation advanced the
// session's version vector. Caller holds the session write lock.
func (sess *session) bumpVector() {
	close(sess.vecCh)
	sess.vecCh = make(chan struct{})
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
		s.tracer = obs.NewTracer(opts.TraceSample, opts.TraceCap)
	}
	s.obs = newMetrics(s)
	s.mux = http.NewServeMux()
	// Session-scoped routes: the session name lives in the path.
	s.mux.HandleFunc("POST /v1/sessions/{session}/load", func(w http.ResponseWriter, r *http.Request) {
		s.handleLoad(w, r, r.PathValue("session"))
	})
	s.mux.HandleFunc("POST /v1/sessions/{session}/query", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, r.PathValue("session"))
	})
	s.mux.HandleFunc("POST /v1/sessions/{session}/explain", func(w http.ResponseWriter, r *http.Request) {
		s.handleExplain(w, r, r.PathValue("session"))
	})
	s.mux.HandleFunc("GET /v1/sessions/{session}/status", s.handleSessionStatus)
	s.mux.HandleFunc("GET /v1/sessions/{session}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		s.handleSnapshot(w, r, r.PathValue("session"))
	})
	s.mux.HandleFunc("GET /v1/sessions/{session}/wal", s.handleWAL)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	// Legacy flat routes (pre-PR-6 clients): thin shims that read the
	// session name from the request body or query string and delegate to
	// the same handlers.
	s.mux.HandleFunc("POST /v1/load", func(w http.ResponseWriter, r *http.Request) {
		s.handleLoad(w, r, "")
	})
	s.mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, "")
	})
	s.mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) {
		s.handleExplain(w, r, "")
	})
	s.mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		s.handleSnapshot(w, r, r.URL.Query().Get("session"))
	})
	s.handler = s.withRequestID(s.mux)
	return s
}

// newSession builds an empty session (no database, no log attached).
func (s *Server) newSession(name string) *session {
	return &session{
		name:    name,
		created: time.Now(),
		db:      relation.NewDatabase(),
		prep:    plan.NewPrepCache(s.opts.CacheCap),
		results: newResultCache(s.opts.ResultCacheCap),
		warm:    newWarmSet(),
		vecCh:   make(chan struct{}),
	}
}

// EnableDurability attaches a data directory: every session already on
// disk is recovered — database contents, version vectors, null identities
// restored to the last acknowledged load, prepared-plan cache re-warmed
// from the snapshot's warm keys — and every future load is written ahead
// and fsync'd before it is acknowledged. Must be called before serving.
func (s *Server) EnableDurability(dir string) error {
	st, err := store.Open(dir, store.Options{SnapshotBytes: s.opts.SnapshotBytes, Metrics: s.obs.wal, Trace: s.walTrace()})
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
		sess.warm.seed(rec.Warm)
		s.sessions[rec.Name] = sess
		s.warmSession(sess, rec.Warm)
		// Resume under the highest recovered epoch (direct store, not
		// observeEpoch: our own history is not evidence of a successor).
		if rec.Epoch > s.epoch.Load() {
			s.epoch.Store(rec.Epoch)
		}
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

// raiseEpoch lifts the server's epoch without the fencing side effect —
// for deliberate adoption, like an operator-directed snapshot restore.
func (s *Server) raiseEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// observeEpoch folds an externally observed epoch into the server's. A
// higher epoch than our own means another server has been promoted: a
// replica simply adopts it (its new primary writes under it), but a server
// that believed itself primary has been superseded and fences itself
// read-only — the write-safety half of epoch fencing.
func (s *Server) observeEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			if s.repl.Load() == nil {
				s.fenced.Store(true)
				log.Printf("server: observed epoch %d above own %d; fencing writes (a promoted primary exists)", e, cur)
			}
			return
		}
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
	if err := decodeOptional(w, r, &req); err != nil {
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
	s.mu.RLock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.RUnlock()
	for _, sess := range sessions {
		seq, err := s.commitEpoch(sess, newEpoch)
		if err != nil {
			// The session's log refused (e.g. fail-stopped): promotion is
			// aborted half-way — some sessions may already carry the new
			// epoch, which is safe (epochs only fence the old primary) but
			// this server stays a non-writable follower-without-a-feed until
			// the operator resolves the log. Surface it.
			s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
				"promote: session %q epoch record failed: %v", sess.name, err))
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

// commitEpoch durably writes one session's promotion marker: an OpEpoch
// record carrying the new epoch and the session's current vector (so
// replay's vector cross-check still holds at that position).
func (s *Server) commitEpoch(sess *session, epoch uint64) (uint64, error) {
	sess.logMu.Lock()
	sess.mu.RLock()
	versions := sess.db.Versions()
	sess.mu.RUnlock()
	if sess.log == nil {
		sess.logMu.Unlock()
		return 0, nil
	}
	sess.log.SetEpoch(epoch)
	seq, err := sess.log.Buffer(store.OpEpoch, "", versions)
	sess.logMu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, sess.log.Sync(seq)
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
	s.mu.RLock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.RUnlock()
	for _, sess := range sessions {
		if sess.log == nil {
			continue
		}
		if err := sess.log.Sync(sess.log.Seq()); err != nil {
			log.Printf("server: shutdown drain %q: %v", sess.name, err)
		}
	}
}

// acquire takes an evaluation slot, respecting the request context. A free
// slot is taken even when the context is already done (the fast path below
// never loses that race), so the error always means the caller actually
// waited: it reports the live in-flight gauge and the context's own cause
// so a client-side timeout is not misread as server saturation.
func (s *Server) acquire(ctx context.Context) *api.Error {
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
	db, err := raparse.ParseDatabase(strings.NewReader(data))
	if err != nil {
		return 0, err
	}
	sess, err := s.ensureSession(session)
	if err != nil {
		return 0, err
	}
	resp, aerr := s.commitReplace(sess, db, store.OpReplace, data, nil)
	if aerr != nil {
		return 0, aerr
	}
	return len(resp.Relations), nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request, name string) {
	var req api.LoadRequest
	if err := decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if name == "" {
		name = req.Session
	}
	if name == "" {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "missing session name"))
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
	if req.Snapshot {
		s.handleRestore(w, r, name, &req)
		return
	}
	if req.Append {
		if sess := s.sessionFor(name); sess != nil {
			resp, aerr := s.commitAppend(sess, req.Data, obs.SpanFromContext(r.Context()))
			if aerr != nil {
				s.fail(w, aerr)
				return
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// Appending to a session that does not exist yet is its first load.
	}
	// Replace path: parse and validate the payload before the session is
	// even created, so a failed first load leaves no phantom empty session
	// behind and a failed replace leaves the old database untouched.
	db, err := raparse.ParseDatabase(strings.NewReader(req.Data))
	if err != nil {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadQuery, "%v", err))
		return
	}
	sess, err := s.ensureSession(name)
	if err != nil {
		s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err))
		return
	}
	resp, aerr := s.commitReplace(sess, db, store.OpReplace, req.Data, obs.SpanFromContext(r.Context()))
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRestore bootstraps (or resets) a session from a snapshot export —
// the payload a snapshot endpoint (possibly of another server) produced.
// Null identifiers and the version vector are preserved, and the
// snapshot's warm keys re-prepare the working set.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, name string, req *api.LoadRequest) {
	snap, err := store.DecodeSnapshot(strings.NewReader(req.Data))
	if err != nil {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadQuery, "%v", err))
		return
	}
	db, err := snap.Database()
	if err != nil {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadQuery, "%v", err))
		return
	}
	sess, err := s.ensureSession(name)
	if err != nil {
		s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err))
		return
	}
	// An explicit restore adopts the snapshot's epoch (deliberate operator
	// action, not evidence of a concurrent successor — no fencing): the
	// OpRestore record and everything after it write at or above it.
	if sess.log != nil {
		sess.log.SetEpoch(snap.Epoch)
	}
	s.raiseEpoch(snap.Epoch)
	resp, aerr := s.commitReplace(sess, db, store.OpRestore, req.Data, obs.SpanFromContext(r.Context()))
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	sess.warm.seed(snap.Warm)
	s.warmSession(sess, snap.Warm)
	writeJSON(w, http.StatusOK, resp)
}

// commitAppend applies an append mutation and makes it durable: parse into
// the live database under the write lock and buffer the WAL record under
// logMu (so log order is apply order), then group-commit the fsync outside
// both locks — appends that arrive while the fsync is in flight buffer
// behind it and ride the next one together, and concurrent queries are
// never blocked on the disk.
func (s *Server) commitAppend(sess *session, data string, sp *obs.Span) (api.LoadResponse, *api.Error) {
	asp := sp.StartChild("load.apply")
	sess.logMu.Lock()
	sess.mu.Lock()
	// Parse into the live database (atomic: a payload error leaves it
	// untouched); version bumps on the touched relations invalidate
	// exactly the prepared plans reading them, and result-cache keys
	// embedding the old vector stop matching.
	if err := raparse.ParseDatabaseInto(strings.NewReader(data), sess.db); err != nil {
		sess.mu.Unlock()
		sess.logMu.Unlock()
		asp.SetError(err.Error())
		asp.End()
		return api.LoadResponse{}, api.Errorf(http.StatusBadRequest, api.CodeBadQuery, "%v", err)
	}
	resp := s.loadResponse(sess)
	sess.bumpVector()
	sess.mu.Unlock()
	asp.End()
	wsp := sp.StartChild("wal.commit")
	seq, aerr := s.logBuffer(sess, store.OpAppend, data, resp.Versions, wsp)
	sess.logMu.Unlock()
	if aerr != nil {
		wsp.SetError(aerr.Message)
		wsp.End()
		return api.LoadResponse{}, aerr
	}
	if aerr := s.logSync(sess, seq); aerr != nil {
		wsp.SetError(aerr.Message)
		wsp.End()
		return api.LoadResponse{}, aerr
	}
	wsp.Attr("seq", strconv.FormatUint(seq, 10))
	wsp.End()
	s.snapshotIfNeeded(sess)
	return resp, nil
}

// commitReplace installs db as the session database (replace and
// snapshot-restore loads, and Preload) and makes the mutation durable.
func (s *Server) commitReplace(sess *session, db *relation.Database, op store.Op, data string, sp *obs.Span) (api.LoadResponse, *api.Error) {
	asp := sp.StartChild("load.apply")
	sess.logMu.Lock()
	sess.mu.Lock()
	// Replacing the database wholesale replaces every relation object, so
	// no cached prepared plan can survive its pointer guard — drop the
	// cache now rather than letting stale entries pin the old database's
	// frozen materializations. The result cache goes with it: fresh
	// relations restart their version counters, so its vector-embedding
	// keys could otherwise collide with the old database's.
	sess.db = db
	sess.prep = plan.NewPrepCache(s.opts.CacheCap)
	sess.results = newResultCache(s.opts.ResultCacheCap)
	resp := s.loadResponse(sess)
	sess.bumpVector()
	sess.mu.Unlock()
	asp.End()
	wsp := sp.StartChild("wal.commit")
	seq, aerr := s.logBuffer(sess, op, data, resp.Versions, wsp)
	sess.logMu.Unlock()
	if aerr != nil {
		wsp.SetError(aerr.Message)
		wsp.End()
		return api.LoadResponse{}, aerr
	}
	if aerr := s.logSync(sess, seq); aerr != nil {
		wsp.SetError(aerr.Message)
		wsp.End()
		return api.LoadResponse{}, aerr
	}
	wsp.Attr("seq", strconv.FormatUint(seq, 10))
	wsp.End()
	s.snapshotIfNeeded(sess)
	return resp, nil
}

// logBuffer assigns the applied mutation its WAL record (no-op on a
// memory-only server). Caller holds logMu. The committing request's
// wal.commit span context rides in the record: replicas parent their
// apply spans on it, and the flush leader reports the fsync against it.
// Only sampled traces travel — replicas drop unsampled contexts anyway
// (StartLinked gates on the flag), so unsampled requests ship no
// traceparent bytes in their durable records.
func (s *Server) logBuffer(sess *session, op store.Op, data string, versions map[string]uint64, wsp *obs.Span) (uint64, *api.Error) {
	if sess.log == nil {
		return 0, nil
	}
	trace := ""
	if wsp.Sampled() {
		trace = wsp.Context().TraceParent()
	}
	seq, err := sess.log.BufferTrace(op, data, versions, trace)
	if err != nil {
		// The mutation is applied in memory but not durable; surface that
		// honestly — the client must not treat this load as acknowledged.
		return 0, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"load applied but not durable (wal append failed): %v", err)
	}
	return seq, nil
}

// logSync blocks until the buffered record is fsync'd (group commit: it
// rides or leads a shared flush). No-op on a memory-only server.
func (s *Server) logSync(sess *session, seq uint64) *api.Error {
	if sess.log == nil {
		return nil
	}
	if err := sess.log.Sync(seq); err != nil {
		return api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"load applied but not durable (wal sync failed): %v", err)
	}
	return nil
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
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, name string) {
	sess := s.sessionFor(name)
	if sess == nil {
		s.fail(w, errSessionNotFound(name))
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
		log.Printf("server: snapshot export %q: %v", name, err)
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
	name := r.PathValue("session")
	sess := s.sessionFor(name)
	if sess == nil {
		s.fail(w, errSessionNotFound(name))
		return
	}
	if sess.log == nil {
		s.fail(w, api.Errorf(http.StatusConflict, api.CodeNotDurable,
			"session %q has no write-ahead log (server is memory-only); replication needs -data-dir", name))
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, name string) {
	var req api.QueryRequest
	if err := decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if name == "" {
		name = req.Session
	}
	sess := s.sessionFor(name)
	if sess == nil {
		s.fail(w, errSessionNotFound(name))
		return
	}
	// Reads are served even by a fenced server, but the client's observed
	// epoch still folds in: a stale primary learns of its successor from
	// the first request that has seen one.
	s.observeEpoch(req.Epoch)
	if aerr := s.waitCovered(r.Context(), sess, req.ReadAfter); aerr != nil {
		s.fail(w, aerr)
		return
	}
	start := time.Now()
	sp := obs.SpanFromContext(r.Context())

	// Result-cache fast path: a byte-identical repeated request against an
	// unchanged version vector is answered without taking an evaluation
	// slot — O(1) regardless of what the query costs to evaluate.
	csp := sp.StartChild("result_cache.lookup")
	sess.mu.RLock()
	key := resultKey(&req, sess.db)
	versions := sess.db.Versions()
	cached, hit := sess.results.get(key)
	sess.mu.RUnlock()
	csp.Attr("hit", strconv.FormatBool(hit))
	csp.End()
	if hit {
		sess.queries.Add(1)
		elapsed := time.Since(start)
		proc := procName(req.Proc)
		s.obs.queries.With(proc, name).Inc()
		// Cache hits are real served latency: they land in the histogram
		// under cache="hit" so `incdbctl top` quantiles reflect what
		// clients actually experienced, not just evaluation cost.
		s.obs.queryLatency.With(proc, name, "hit").ObserveExemplar(elapsed.Seconds(), sp.ExemplarRef())
		s.recordWarm(sess, &req)
		writeJSON(w, http.StatusOK, api.QueryResponse{
			Session:   name,
			Proc:      proc,
			Query:     req.Query,
			Results:   cached,
			ElapsedMs: float64(elapsed.Microseconds()) / 1000,
			Cached:    true,
			Versions:  versions,
			Epoch:     s.epoch.Load(),
			TraceID:   sp.ExemplarRef(),
		})
		return
	}

	wsp := sp.StartChild("admission.wait")
	aerr := s.acquire(r.Context())
	wsp.End()
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	defer s.release()

	// The trace rides along every evaluation: its counters (worlds
	// enumerated, frozen-part reuse) are two atomic adds per plan
	// execution, cheap enough to keep always on. Per-node detail is
	// opt-in per request (trace_detail on a sampled trace): the traced
	// stream never reorders or buffers batches, so results are
	// byte-identical either way.
	detail := req.TraceDetail && sp.Sampled()
	tr := plan.NewTrace(detail)
	esp := sp.StartChild("evaluate")
	esp.Attr("proc", procName(req.Proc))
	evalStart := time.Now()
	var results []api.Resultset
	var err error
	sess.mu.RLock()
	// Re-key under the same lock as the evaluation: the vector may have
	// moved between the fast path and acquiring a slot.
	key = resultKey(&req, sess.db)
	versions = sess.db.Versions()
	// pprof labels segment -pprof-addr CPU profiles by workload; the
	// trace ID lets a profile sample be joined back to its trace.
	pprof.Do(r.Context(), pprof.Labels("session", name, "proc", procName(req.Proc), "trace_id", sp.TraceID()),
		func(ctx context.Context) {
			results, err = s.evaluate(ctx, sess, &req, tr)
		})
	if err == nil {
		sess.results.put(key, results)
	}
	sess.mu.RUnlock()
	if err != nil {
		esp.SetError(err.Error())
		esp.End()
		if cause := r.Context().Err(); cause != nil && errors.Is(err, cause) {
			// The client is gone or out of time: the enumeration stopped
			// at its next poll and the deferred release frees the slot.
			s.obs.cancelled.Inc()
			s.fail(w, api.Errorf(statusClientClosedRequest, api.CodeRequestCancelled,
				"query abandoned after %d worlds: %v", tr.Execs.Load(), err))
			return
		}
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeBadQuery, "%v", err))
		return
	}
	sess.queries.Add(1)
	s.recordWarm(sess, &req)
	elapsed := time.Since(start)
	proc := procName(req.Proc)
	worlds, frozen := tr.Execs.Load(), tr.FrozenReuse.Load()
	esp.Attr("worlds", strconv.FormatInt(worlds, 10))
	s.spanPlanNodes(esp, tr, evalStart)
	esp.End()
	s.obs.queries.With(proc, name).Inc()
	s.obs.queryLatency.With(proc, name, "miss").ObserveExemplar(elapsed.Seconds(), sp.ExemplarRef())
	s.obs.queryWorlds.Observe(float64(worlds))
	s.obs.worlds.Add(uint64(worlds))
	s.obs.frozenReuse.Add(uint64(frozen))
	s.logSlow(r, sess, &req, elapsed, worlds, frozen)
	writeJSON(w, http.StatusOK, api.QueryResponse{
		Session:     name,
		Proc:        proc,
		Query:       req.Query,
		Results:     results,
		ElapsedMs:   float64(elapsed.Microseconds()) / 1000,
		Worlds:      worlds,
		FrozenReuse: frozen,
		Versions:    versions,
		Epoch:       s.epoch.Load(),
		TraceID:     sp.ExemplarRef(),
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, name string) {
	var req api.ExplainRequest
	if err := decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if name == "" {
		name = req.Session
	}
	sess := s.sessionFor(name)
	if sess == nil {
		s.fail(w, errSessionNotFound(name))
		return
	}
	if aerr := s.acquire(r.Context()); aerr != nil {
		s.fail(w, aerr)
		return
	}
	defer s.release()

	sess.mu.RLock()
	info, err := s.explain(sess, &req)
	sess.mu.RUnlock()
	if err != nil {
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeBadQuery, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.ExplainResponse{
		Session: name,
		Plan:    info,
		Text:    info.Text(),
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	sessions := make([]*session, len(names))
	for i, name := range names {
		sessions[i] = s.sessions[name]
	}
	s.mu.RUnlock()

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
	for _, sess := range sessions {
		resp.Sessions = append(resp.Sessions, s.sessionStatusOf(sess))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionStatus reports one session's status.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("session")
	sess := s.sessionFor(name)
	if sess == nil {
		s.fail(w, errSessionNotFound(name))
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

func errSessionNotFound(name string) *api.Error {
	return api.Errorf(http.StatusNotFound, api.CodeSessionNotFound,
		"unknown session %q (load data first)", name)
}

func decode(w http.ResponseWriter, r *http.Request, into any) *api.Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}

// decodeOptional is decode for requests whose body may be empty (e.g. a
// bare POST /v1/promote): an absent body leaves into at its zero value.
func decodeOptional(w http.ResponseWriter, r *http.Request, into any) *api.Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil && err != io.EOF {
		return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

// writeErr writes the uniform error envelope:
// {"error":{"code":"...","message":"..."}}.
func writeErr(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, e.Status, api.ErrorEnvelope{Error: e})
}
