package api

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Machine-readable error codes, carried in every non-2xx response body.
const (
	// CodeBadRequest: the request itself is malformed (undecodable body,
	// unknown body field, bad query-string parameter).
	CodeBadRequest = "bad_request"
	// CodeBadQuery: the query (or load payload) failed to parse, validate
	// or evaluate against the session's schema.
	CodeBadQuery = "bad_query"
	// CodeSessionNotFound: the named session does not exist (load data
	// first).
	CodeSessionNotFound = "session_not_found"
	// CodeNotFound: the addressed resource does not exist (e.g. no stored
	// spans for the requested trace ID — it was never sampled, or the ring
	// evicted it).
	CodeNotFound = "not_found"
	// CodeOverloaded: no evaluation slot became free while the client was
	// willing to wait.
	CodeOverloaded = "overloaded"
	// CodeRequestCancelled: the request's context ended (client gone, or
	// its deadline passed) while the query was being evaluated; the
	// enumeration was abandoned and its evaluation slot released.
	CodeRequestCancelled = "request_cancelled"
	// CodeStaleReplica: the server's version vector does not cover the
	// request's consistency token and did not catch up within the stale
	// wait; retry (possibly against the primary).
	CodeStaleReplica = "stale_replica"
	// CodeReadOnlyReplica: the server follows a primary; mutations must go
	// to the primary.
	CodeReadOnlyReplica = "read_only_replica"
	// CodeNotDurable: the operation needs a write-ahead log (WAL tailing)
	// but the server runs memory-only.
	CodeNotDurable = "not_durable"
	// CodeWALGap: the requested WAL position was compacted away; the
	// follower must re-bootstrap from a snapshot.
	CodeWALGap = "wal_gap"
	// CodeFencedStalePrimary: this server observed a higher replication
	// epoch than its own — another server has been promoted primary — and
	// has fenced itself read-only. Writes must go to the current primary;
	// this server can rejoin the fleet as a follower of it.
	CodeFencedStalePrimary = "fenced_stale_primary"
	// CodeNotCaughtUp: promotion was refused because the follower has not
	// applied its primary's full WAL (as far as it can tell); retry once
	// replication drains, or promote with force.
	CodeNotCaughtUp = "not_caught_up"
	// CodeShuttingDown: the server is draining for shutdown and no longer
	// accepts new mutations; retry against another endpoint.
	CodeShuttingDown = "shutting_down"
	// CodeInternal: the server failed in a way the client cannot repair
	// (e.g. the load applied but could not be made durable).
	CodeInternal = "internal"
)

// Error is the uniform error body of every non-2xx reply:
//
//	{"error":{"code":"session_not_found","message":"unknown session …"}}
//
// Code is machine-readable (the Code* constants); Message is for humans.
// Error implements error, so clients return it directly — callers can
// errors.As for the code.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`

	// Status is the HTTP status the error traveled with (not part of the
	// body; the transport already carries it).
	Status int `json:"-"`
}

func (e *Error) Error() string { return "server: " + e.Code + ": " + e.Message }

// Errorf builds an Error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorEnvelope is the JSON body wrapping an Error.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// DecodeError turns a non-2xx response body into an *Error. It understands
// the envelope above and falls back to raw text (code "unknown"), so a
// reply that never reached a handler — the mux's own 404, a proxy's 502 —
// is still a usable error.
func DecodeError(status int, body []byte) *Error {
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && len(env.Error) > 0 {
		var e Error
		if json.Unmarshal(env.Error, &e) == nil && e.Code != "" {
			e.Status = status
			return &e
		}
	}
	return &Error{Status: status, Code: "unknown",
		Message: fmt.Sprintf("HTTP %d: %s", status, strings.TrimSpace(string(body)))}
}
