// Package api holds the wire format of the incdbd HTTP/JSON protocol:
// every request and response type exchanged between the server
// (internal/server), its client (server.Client, backing incdbctl), and the
// replication tier. One source of truth — handlers and clients cannot
// drift apart, because they marshal the same structs (QueryResponse through
// a hand-written codec held to encoding/json's bytes, see codec.go).
//
// Routes are session-scoped: the session name lives in the URL path,
//
//	POST /v1/sessions/{name}/load      load or append data
//	POST /v1/sessions/{name}/query     evaluate a query
//	POST /v1/sessions/{name}/explain   structured plan rendering
//	GET  /v1/sessions/{name}/status    one session's status
//	GET  /v1/sessions/{name}/snapshot  consistent snapshot export
//	GET  /v1/sessions/{name}/wal       stream WAL records (replication)
//	GET  /v1/status                    server-wide status
//	POST /v1/promote                   promote a follower to primary
//	GET  /v1/healthz                   liveness probe
//	GET  /v1/readyz                    readiness probe
//	GET  /v1/traces                    recent sampled root spans
//	GET  /v1/traces/{id}               every stored span of one trace
//
// The path is the only place a request names its session: request bodies
// are decoded strictly, so one carrying a "session" field is a 400
// bad_request. The procedures QueryRequest.Proc accepts are the served rows
// of the procedure table in incdb/internal/core.
//
// Consistency tokens: every load and query response carries the session's
// version vector (relation name → mutation version). A client that echoes
// its last-seen vector as QueryRequest.ReadAfter is guaranteed monotonic
// reads across a primary/replica fleet — a replica serves the query only
// once its own vector covers the token, briefly blocking while it catches
// up and failing with ErrStaleReplica (HTTP 412) when it cannot.
package api

import (
	"incdb/internal/obs"
	"incdb/internal/plan"
	"incdb/internal/store"
)

// LoadRequest creates or extends a session database. Data is the raparse
// text format ("rel NAME attrs…" / "row NAME values…" lines). With Append
// false the session's database is replaced wholesale; with Append true the
// lines are parsed into the live database — new "rel" lines extend the
// schema, "row" lines add tuples (bumping the relations' mutation
// versions, which invalidates exactly the prepared plans that read them).
// With Snapshot true, Data is instead a snapshot export (or durable
// snapshot file): the session is replaced by the decoded database with
// null identifiers and version vector preserved — the replica bootstrap
// path.
// Epoch, when non-zero, is the highest replication epoch the client has
// observed: a server whose own epoch is lower learns it has been
// superseded and fences itself (fenced_stale_primary) instead of
// accepting a divergent write.
type LoadRequest struct {
	Data     string `json:"data"`
	Append   bool   `json:"append,omitempty"`
	Snapshot bool   `json:"snapshot,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// LoadResponse reports the resulting schema and version vector. Versions
// is the consistency token for read-your-writes routing: echo it as
// QueryRequest.ReadAfter and no replica will answer from a state older
// than this load.
type LoadResponse struct {
	Session   string            `json:"session"`
	Relations []RelationStatus  `json:"relations"`
	Versions  map[string]uint64 `json:"versions"`
	Epoch     uint64            `json:"epoch,omitempty"` // epoch the load committed under
}

// RelationStatus describes one relation of a session database.
type RelationStatus struct {
	Name    string `json:"name"`
	Arity   int    `json:"arity"`
	Rows    int    `json:"rows"` // distinct tuples
	Version uint64 `json:"version"`
}

// QueryRequest evaluates Query (raparse query syntax) against a session
// database. Proc names the evaluation procedure, a served row of core.Procs
// (empty means sql); Bag asks for bag semantics, which the rows that honour
// it (sql, naive) apply. MaxWorlds bounds the certainty oracles (0 =
// server default). ReadAfter is the consistency token: the server answers
// only from a database state whose version vector covers it (a replica
// waits briefly for replication to catch up, then fails with
// ErrStaleReplica).
// Epoch, like LoadRequest.Epoch, is the client's highest observed
// replication epoch — a stale primary fences itself on seeing a higher one.
type QueryRequest struct {
	Query     string            `json:"query"`
	Proc      string            `json:"proc,omitempty"`
	Bag       bool              `json:"bag,omitempty"`
	MaxWorlds int               `json:"max_worlds,omitempty"`
	ReadAfter map[string]uint64 `json:"read_after,omitempty"`
	Epoch     uint64            `json:"epoch,omitempty"`
	// TraceDetail asks for per-plan-node child spans on this request's
	// trace (only honored when the request's trace is sampled). The
	// per-batch counting it enables never changes results — only adds
	// spans — but costs a little, so it is opt-in per request.
	TraceDetail bool `json:"trace_detail,omitempty"`
}

// Resultset is one relation of answers. Rows are rendered in the
// database text format: constants verbatim, the null ⊥k as "_k". Mults is
// set only when some multiplicity differs from one (bag semantics).
type Resultset struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows"`
	Mults   []int      `json:"mults,omitempty"`
}

// QueryResponse carries the evaluation results: one resultset for most
// procedures, certain+possible for the ctable strategies. Cached reports
// that the session's result cache answered without evaluating anything.
// Versions is the version vector of the state that answered — the
// consistency token for subsequent monotonic reads. Worlds counts the plan
// executions the evaluation spent (one per enumerated valuation for the
// certainty oracles, typically 1 otherwise); FrozenReuse counts the
// world-invariant subplan results served instead of recomputed. Both are 0
// on cached answers and for the ctable strategies (which bypass the plan
// executor).
type QueryResponse struct {
	Session     string            `json:"session"`
	Proc        string            `json:"proc"`
	Query       string            `json:"query"`
	Results     []Resultset       `json:"results"`
	ElapsedMs   float64           `json:"elapsed_ms"`
	Cached      bool              `json:"cached,omitempty"`
	Worlds      int64             `json:"worlds,omitempty"`
	FrozenReuse int64             `json:"frozen_reuse,omitempty"`
	Versions    map[string]uint64 `json:"versions,omitempty"`
	Epoch       uint64            `json:"epoch,omitempty"` // epoch of the answering state
	// TraceID is the hex trace ID of the request's sampled trace, usable
	// with GET /v1/traces/{id} and `incdbctl trace`; empty when the
	// request was not sampled or tracing is off.
	TraceID string `json:"trace_id,omitempty"`
}

// ExplainRequest renders the plan for a query against a session database.
// With Analyze true the plan is also executed once with per-node tracing:
// the response carries actual row counts, batch counts and wall time next
// to each node's estimates (EXPLAIN ANALYZE).
type ExplainRequest struct {
	Query   string `json:"query"`
	SQL     bool   `json:"sql,omitempty"` // plan for SQL three-valued evaluation
	Bag     bool   `json:"bag,omitempty"`
	Analyze bool   `json:"analyze,omitempty"`
}

// ExplainResponse returns the structured plan (the same plan.Describe
// output incdbctl's explain -format json prints) plus its text rendering.
type ExplainResponse struct {
	Session string            `json:"session"`
	Plan    *plan.ExplainInfo `json:"plan"`
	Text    string            `json:"text"`
}

// StatusResponse is the server-wide status snapshot. DataDir is set when
// durability is enabled; Replication when the server follows a primary.
// Role and Epoch are the failover coordinates: Role is "primary",
// "replica", or "fenced" (a former primary that observed a higher epoch
// and refuses writes); Epoch is the server's highest replication epoch
// across sessions. A failover-aware client probes Role/Epoch to find the
// writable primary.
type StatusResponse struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Workers       int                `json:"workers"`
	MaxInFlight   int                `json:"max_in_flight"`
	InFlight      int                `json:"in_flight"`
	Role          string             `json:"role"`
	Epoch         uint64             `json:"epoch"`
	DataDir       string             `json:"data_dir,omitempty"`
	Replication   *ReplicationStatus `json:"replication,omitempty"`
	Sessions      []SessionStatus    `json:"sessions"`
}

// Server roles reported in StatusResponse.Role.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	RoleFenced  = "fenced"
)

// PromoteRequest asks a follower to become the writable primary at
// epoch+1. The server refuses unless its replication tail is drained
// (every shipped record applied) — Force skips that check for disaster
// recovery when the old primary is truly gone and its unshipped tail is
// accepted as lost.
type PromoteRequest struct {
	Force bool `json:"force,omitempty"`
}

// PromoteResponse reports the successful promotion: the new epoch and the
// per-session WAL positions the server took over at.
type PromoteResponse struct {
	Epoch    uint64            `json:"epoch"`
	Sessions map[string]uint64 `json:"sessions"` // session → seq of its epoch record
}

// HealthResponse is the body of /v1/healthz and /v1/readyz. Ok mirrors the
// HTTP status (200 ↔ true, 503 ↔ false); Reason says why not.
type HealthResponse struct {
	Ok     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// SessionStatus describes one session: its schema with versions, how many
// queries it has served, its prepared-plan and oracle-result cache
// counters, and — when durability is enabled — the session's durable
// state (WAL size, sequence numbers, last snapshot and last fsync). A
// byte-identical repeated query shows up as ResultCache.Hits moving; a
// plan-equal but differently spelled one as Cache.Hits; appending to a
// relation shows up as Cache.Advances moving — with Cache.Hits — on the
// next affected query, whose prepared plan is advanced across the new rows,
// and any other mutation (a replace, a restore, more appends than a
// relation's append log remembers, any change under a Dom-reading plan) as
// Cache.Invalidations, the entries actually dropped; every mutation empties
// the result cache. Versions is the session's current vector — the freshest
// possible consistency token.
type SessionStatus struct {
	Name        string            `json:"name"`
	CreatedAt   string            `json:"created_at"`
	Queries     uint64            `json:"queries"`
	Versions    map[string]uint64 `json:"versions"`
	Relations   []RelationStatus  `json:"relations"`
	Cache       plan.CacheStats   `json:"cache"`
	ResultCache ResultCacheStats  `json:"result_cache"`
	Durability  *store.Durability `json:"durability,omitempty"`
}

// ResultCacheStats is the status snapshot of a session's result cache,
// which holds the encoded answers of every procedure.
type ResultCacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// ReplicationStatus reports a replica's view of its primary: one entry per
// followed session.
type ReplicationStatus struct {
	Primary  string           `json:"primary"`
	Sessions []ReplicaSession `json:"sessions"`
}

// TracesResponse is the body of GET /v1/traces: recently finished root
// spans (request tops and remote-parented apply spans), newest first.
type TracesResponse struct {
	Spans []obs.SpanData `json:"spans"`
}

// TraceResponse is the body of GET /v1/traces/{id}: every span this
// server holds for one trace, ordered by start time. Each server keeps
// its own ring — a distributed trace is read by querying the same ID on
// the primary and its replicas.
type TraceResponse struct {
	TraceID string         `json:"trace_id"`
	Spans   []obs.SpanData `json:"spans"`
}

// ReplicaSession is the replication state of one followed session.
// AppliedSeq is the last primary WAL sequence number applied locally;
// State is "bootstrapping" (restoring a snapshot), "streaming" (tailing
// the WAL) or "retrying" (reconnecting after an error). Bootstraps counts
// snapshot restores since this process started — a durable replica that
// resumed from its own log after a restart shows 0.
type ReplicaSession struct {
	Session    string `json:"session"`
	State      string `json:"state"`
	AppliedSeq uint64 `json:"applied_seq"`
	Bootstraps uint64 `json:"bootstraps"`
	Frames     uint64 `json:"frames"`
	LastError  string `json:"last_error,omitempty"`
}
