// Package server implements incdbd: a long-lived HTTP/JSON query service
// over named, session-scoped incomplete databases.
//
// Each session holds one incomplete database (loaded and mutated through
// its load endpoint in the raparse text format) and one prepared-plan
// cache: the compile-once planner's Prepared state — row partitions, frozen
// parts, the join tables over them — survives across requests
// and is shared by concurrent queries, guarded by the relations' mutation
// versions: an append to a touched relation advances exactly the affected
// entries across the new rows on their next lookup, any other mutation
// drops them (see plan.PrepCache).
//
// Endpoints (wire types in incdb/internal/api):
//
//	POST /v1/sessions/{session}/load      load or append data
//	POST /v1/sessions/{session}/query     evaluate under any procedure
//	POST /v1/sessions/{session}/explain   structured plan rendering
//	GET  /v1/sessions/{session}/status    one session's status
//	GET  /v1/sessions/{session}/snapshot  consistent snapshot export
//	GET  /v1/sessions/{session}/wal       stream WAL records (replication)
//	GET  /v1/status                       server-wide status
//
// plus the server-wide promote, metrics, traces and probe routes. The path is
// the only place a request names its session. Every non-2xx reply carries
// the uniform envelope {"error":{"code":"…","message":"…"}} (api.Error).
//
// A query is one pipeline (handleQuery): decode → resolve session →
// consistency wait → result-cache lookup → admission → parse, validate and
// core.Run under the session read lock → finish, each stage wrapped once
// for its span (result_cache.lookup, admission.wait, evaluate). The
// procedure a request names is a row of core.Procs; the server never
// switches on procedure names. A mutation is one path too (commit): build
// the store.Record it logs, apply it under the session's commit and write
// locks, buffer the WAL record, unlock, group-commit the fsync, check for
// compaction. What a record does to a database is store.ApplyRecord's
// alone: an append to a live session and the promotion epoch record apply
// through session.apply, the same call a replica makes for every record it
// tails (and recovery makes ApplyRecord's on its own), so replica ≡ primary
// holds by construction. A first load, replace or restore is staged on a
// fresh database outside the write lock and installed by the commit.
//
// With a data directory attached (incdbd -data-dir, see internal/store)
// every load is written ahead to a per-session log and fsync'd before it
// is acknowledged — concurrent loads group-commit, sharing fsyncs — then
// snapshots compact the log, and startup recovers all sessions to the
// last acknowledged load. The WAL doubles as the replication feed: a
// second incdbd started with -follow bootstraps each session from the
// primary's snapshot endpoint and tails its WAL endpoint, replaying
// records through the same recovery machinery, so the follower converges
// to a byte-identical database (null identities and version vectors
// included) and serves reads. Query responses carry the session's version
// vector; a client may echo it as a consistency token (read_after) and a
// replica holds the read until replication covers it, so reads are
// monotonic across the fleet.
package server
