package server

import (
	"net/http"
	"time"

	"incdb/internal/api"
	"incdb/internal/engine"
	"incdb/internal/obs"
	"incdb/internal/store"
)

// flushByteBuckets sizes the WAL flush-bytes histogram: 256B to 64MB,
// ×4 per step (the server caps request bodies at 64MB).
var flushByteBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// worldBuckets sizes the per-query worlds-enumerated histogram: the
// oracles' valuation spaces grow exponentially, so the buckets do too.
var worldBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 1 << 20}

// metrics is the server's observability surface: one obs.Registry per
// Server (never process-global, so a primary and a follower in one test
// process keep separate series), rendered by GET /v1/metrics.
//
// Two kinds of series live here. Event-driven instruments (histograms and
// counters below) are updated inline by the handlers. Everything that
// already has a home — session cache stats, WAL sequence state,
// replication progress — is bridged by scrape-time collectors reading the
// same atomics /v1/status reports from, so the two endpoints cannot
// disagree.
type metrics struct {
	reg *obs.Registry

	queries      *obs.CounterVec   // incdb_queries_total{proc,session}
	queryLatency *obs.HistogramVec // incdb_query_seconds{proc,session,cache} (hit = served from result cache)
	queryWorlds  *obs.Histogram    // incdb_query_worlds (worlds per evaluated query)
	worlds       *obs.Counter      // incdb_worlds_enumerated_total
	frozenReuse  *obs.Counter      // incdb_frozen_reuse_total
	slowQueries  *obs.Counter      // incdb_slow_queries_total
	cancelled    *obs.Counter      // incdb_query_cancelled_total
	errors       *obs.CounterVec   // incdb_errors_total{code}

	wal *store.Observer
}

// collector is the shape of obs.Registry's CollectCounter and CollectGauge.
type collector = func(name, help string, labels []string, collect func(emit func(float64, ...string)))

func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		queries: reg.CounterVec("incdb_queries_total",
			"Queries served, including result-cache hits.", "proc", "session"),
		queryLatency: reg.HistogramVec("incdb_query_seconds",
			"Query latency as served; cache=hit for result-cache answers, miss for evaluated ones.",
			obs.LatencyBuckets, "proc", "session", "cache"),
		queryWorlds: reg.Histogram("incdb_query_worlds",
			"Worlds enumerated per evaluated query (plan executions; 1 for non-oracle procs).", worldBuckets),
		worlds: reg.Counter("incdb_worlds_enumerated_total",
			"Plan executions across all queries: each oracle world counts one."),
		frozenReuse: reg.Counter("incdb_frozen_reuse_total",
			"Frozen (world-invariant) parts of prepared plans served instead of recomputed."),
		slowQueries: reg.Counter("incdb_slow_queries_total",
			"Queries over the -slow-query threshold."),
		cancelled: reg.Counter("incdb_query_cancelled_total",
			"Queries abandoned mid-evaluation because the request's context ended."),
		errors: reg.CounterVec("incdb_errors_total",
			"Requests failed, by machine-readable error code.", "code"),
		wal: &store.Observer{
			AppendSeconds: reg.Histogram("incdb_wal_append_seconds",
				"Group-commit flush latency (write+fsync).", obs.LatencyBuckets),
			FsyncSeconds: reg.Histogram("incdb_wal_fsync_seconds",
				"WAL fsync latency.", obs.LatencyBuckets),
			RecordsPerFsync: reg.Histogram("incdb_wal_records_per_fsync",
				"Records made durable by one fsync (group-commit batch size).", obs.SizeBuckets),
			FlushBytes: reg.Histogram("incdb_wal_flush_bytes",
				"Bytes written per group-commit flush.", flushByteBuckets),
			SnapshotSeconds: reg.Histogram("incdb_snapshot_seconds",
				"Snapshot install latency (encode, fsync, rename, WAL truncation).", obs.LatencyBuckets),
		},
	}
	if s.tracer != nil {
		m.wal.Flush = s.walFsyncSpan
	}

	// Server-level gauges, computed at scrape time from the live state.
	reg.GaugeFunc("incdb_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("incdb_inflight_requests", "Requests holding an evaluation slot.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("incdb_admission_waiting", "Requests waiting for an evaluation slot.",
		func() float64 { return float64(s.waiting.Load()) })
	reg.GaugeFunc("incdb_max_in_flight", "Evaluation slot capacity.",
		func() float64 { return float64(s.opts.maxInFlight()) })
	reg.GaugeFunc("incdb_engine_workers", "Oracle engine worker pool size.",
		func() float64 { return float64(engine.Options{Workers: s.opts.Workers}.WorkerCount()) })
	reg.GaugeFunc("incdb_epoch", "Current replication epoch.",
		func() float64 { return float64(s.epoch.Load()) })
	reg.GaugeFunc("incdb_draining", "1 while graceful shutdown refuses new mutations.",
		func() float64 { return b2f(s.draining.Load()) })
	reg.CollectGauge("incdb_role", "Failover role (exactly one series is 1).",
		[]string{"role"}, func(emit func(float64, ...string)) {
			role := s.role()
			for _, r := range []string{api.RolePrimary, api.RoleReplica, api.RoleFenced} {
				emit(b2f(r == role), r)
			}
		})

	// Per-session collectors over the same atomics /v1/status renders: the
	// cache counters have exactly one home and two read-only views. f runs
	// under the session read lock (the caches are swapped on replace loads).
	sessSeries := func(register collector, name, help string, f func(*session) float64) {
		register(name, help, []string{"session"}, func(emit func(float64, ...string)) {
			for _, sess := range s.sessionList() {
				sess.mu.RLock()
				v := f(sess)
				sess.mu.RUnlock()
				emit(v, sess.name)
			}
		})
	}
	sessSeries(reg.CollectCounter, "incdb_session_queries_total", "Queries served per session.",
		func(sess *session) float64 { return float64(sess.queries.Load()) })
	sessSeries(reg.CollectCounter, "incdb_prep_cache_hits_total", "Prepared-plan cache hits.",
		func(sess *session) float64 { return float64(sess.prep.Stats().Hits) })
	sessSeries(reg.CollectCounter, "incdb_prep_cache_misses_total", "Prepared-plan cache misses.",
		func(sess *session) float64 { return float64(sess.prep.Stats().Misses) })
	sessSeries(reg.CollectCounter, "incdb_prep_cache_advances_total", "Prepared-plan cache hits whose entry was first advanced across appended rows.",
		func(sess *session) float64 { return float64(sess.prep.Stats().Advances) })
	sessSeries(reg.CollectCounter, "incdb_prep_cache_invalidations_total", "Prepared plans dropped because they could not be advanced to the database's version.",
		func(sess *session) float64 { return float64(sess.prep.Stats().Invalidations) })
	sessSeries(reg.CollectGauge, "incdb_prep_cache_entries", "Prepared plans currently cached.",
		func(sess *session) float64 { return float64(sess.prep.Stats().Entries) })
	sessSeries(reg.CollectCounter, "incdb_result_cache_hits_total", "Result cache hits: requests answered with a cached encoded answer, any procedure.",
		func(sess *session) float64 { return float64(sess.results.stats().Hits) })
	sessSeries(reg.CollectCounter, "incdb_result_cache_misses_total", "Result cache misses: requests that evaluated, any procedure.",
		func(sess *session) float64 { return float64(sess.results.stats().Misses) })
	sessSeries(reg.CollectGauge, "incdb_result_cache_entries", "Encoded answers currently in the result cache, any procedure.",
		func(sess *session) float64 { return float64(sess.results.stats().Entries) })

	// Durable state per session, from the same SessionLog.Stats() atomics.
	walSeries := func(register collector, name, help string, f func(store.Durability) float64) {
		register(name, help, []string{"session"}, func(emit func(float64, ...string)) {
			for _, sess := range s.sessionList() {
				if sess.log != nil {
					emit(f(sess.log.Stats()), sess.name)
				}
			}
		})
	}
	walSeries(reg.CollectGauge, "incdb_wal_seq", "Last assigned WAL sequence number.",
		func(d store.Durability) float64 { return float64(d.Seq) })
	walSeries(reg.CollectGauge, "incdb_wal_durable_seq", "Last fsync'd WAL sequence number.",
		func(d store.Durability) float64 { return float64(d.DurableSeq) })
	walSeries(reg.CollectGauge, "incdb_wal_snapshot_seq", "Last WAL sequence number covered by the on-disk snapshot.",
		func(d store.Durability) float64 { return float64(d.SnapshotSeq) })
	walSeries(reg.CollectGauge, "incdb_wal_bytes", "Current WAL file size.",
		func(d store.Durability) float64 { return float64(d.WalBytes) })
	walSeries(reg.CollectGauge, "incdb_wal_records", "Records in the WAL since the last compaction.",
		func(d store.Durability) float64 { return float64(d.WalRecords) })
	walSeries(reg.CollectGauge, "incdb_wal_failed", "1 after a fail-stopped WAL (write/fsync error).",
		func(d store.Durability) float64 { return b2f(d.Failed) })
	walSeries(reg.CollectCounter, "incdb_wal_syncs_total", "Fsyncs issued (records/syncs = group-commit ratio).",
		func(d store.Durability) float64 { return float64(d.Syncs) })

	// Replication lag, present only while following: the seq delta against
	// the primary's last reported position, and how long since anything was
	// applied — the pair the Failover runbook watches during promotion.
	replSeries := func(register collector, name, help string, f func(fs *followState) float64) {
		register(name, help, []string{"session"}, func(emit func(float64, ...string)) {
			if repl := s.repl.Load(); repl != nil {
				for _, fs := range repl.followStates() {
					emit(f(fs), fs.name)
				}
			}
		})
	}
	replSeries(reg.CollectGauge, "incdb_replica_applied_seq", "Last primary WAL sequence number applied locally.",
		func(fs *followState) float64 { return float64(fs.applied.Load()) })
	replSeries(reg.CollectGauge, "incdb_replica_lag_seq", "Primary's reported WAL position minus the locally applied one.",
		func(fs *followState) float64 {
			ps, ap := fs.primarySeq.Load(), fs.applied.Load()
			if ps <= ap {
				return 0
			}
			return float64(ps - ap)
		})
	replSeries(reg.CollectGauge, "incdb_replica_seconds_since_apply", "Seconds since the last applied record or bootstrap.",
		func(fs *followState) float64 {
			ns := fs.lastApplied.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	replSeries(reg.CollectCounter, "incdb_replica_bootstraps_total", "Snapshot re-bootstraps since this process started.",
		func(fs *followState) float64 { return float64(fs.bootstraps.Load()) })
	replSeries(reg.CollectCounter, "incdb_replica_frames_total", "WAL frames applied from the primary.",
		func(fs *followState) float64 { return float64(fs.frames.Load()) })
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics serves GET /v1/metrics in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.reg.WritePrometheus(w)
}

// fail writes the uniform error envelope and counts the failure by machine
// code — shed requests (overloaded, shutting_down, stale_replica) become
// visible series instead of silent 5xx noise.
func (s *Server) fail(w http.ResponseWriter, e *api.Error) {
	s.obs.errors.With(e.Code).Inc()
	writeErr(w, e)
}
