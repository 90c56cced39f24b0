package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"incdb/internal/api"
	"incdb/internal/obs"
)

// ridKey is the context key the request-ID middleware stores the ID under.
type ridKey struct{}

// withRequestID assigns every request an ID — the client's X-Request-Id
// when it sent one, a server-generated one otherwise — echoes it on the
// response, and threads it through the context so slow-query log lines can
// be joined back to the client call that caused them.
//
// The same middleware opens the request's root trace span when tracing is
// enabled: an incoming traceparent header continues the caller's trace
// (keeping its sampling decision, so one coin flip governs the whole
// fleet), otherwise a fresh trace is minted and head-sampled. The span ID
// is echoed as X-Trace-Id, errors (status >= 400) and slow requests
// (past -slow-query) force the trace to be kept regardless of the
// sampling coin. Probe, scrape and streaming endpoints are exempt —
// tracing them would only fill the ring with noise (or, for the
// indefinitely-streaming WAL tail, never-ending spans).
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("%x-%d", s.start.UnixNano()&0xffffff, s.reqID.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), ridKey{}, id)

		if s.tracer == nil || untracedPath(r.URL.Path) {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}

		parent, _ := obs.ParseTraceParent(r.Header.Get("traceparent"))
		sp := s.tracer.StartRoot(r.Method+" "+r.URL.Path, parent)
		sp.Attr("request_id", id)
		w.Header().Set("X-Trace-Id", sp.TraceID())
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(obs.ContextWithSpan(ctx, sp)))
		elapsed := time.Since(start)
		sp.Attr("http.status", strconv.Itoa(sw.code))
		if sw.code >= 400 {
			sp.SetError("http " + strconv.Itoa(sw.code))
		}
		if s.opts.SlowQuery > 0 && elapsed >= s.opts.SlowQuery {
			sp.Force()
		}
		sp.End()
	})
}

// untracedPath reports whether a request path is exempt from tracing:
// health probes, the metrics scrape, the trace API itself, and the
// long-lived WAL replication stream.
func untracedPath(p string) bool {
	switch p {
	case "/v1/healthz", "/v1/readyz", "/v1/metrics":
		return true
	}
	return strings.HasPrefix(p, "/v1/traces") || strings.HasSuffix(p, "/wal")
}

// statusWriter captures the response status for the tracing middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming handlers keep working
// behind the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID returns the request's ID, or "" outside the middleware (e.g.
// a handler invoked directly in a test).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// logSlow emits one structured log line for an evaluated query that ran
// past the -slow-query threshold: who asked (request ID, session, trace
// ID when the request is traced), what (proc, query text, optimized-plan
// summary), and where the time went (elapsed, worlds enumerated, frozen
// reuse). Cache hits never get here — they are O(1) by construction.
func (s *Server) logSlow(r *http.Request, resp *api.QueryResponse, plan string) {
	s.obs.slowQueries.Inc()
	s.logger.Warn("slow query",
		"request_id", requestID(r.Context()),
		"trace_id", obs.SpanFromContext(r.Context()).TraceID(),
		"session", resp.Session,
		"proc", resp.Proc,
		"elapsed_ms", resp.ElapsedMs,
		"worlds", resp.Worlds,
		"frozen_reuse", resp.FrozenReuse,
		"query", resp.Query,
		"plan", plan,
	)
}
