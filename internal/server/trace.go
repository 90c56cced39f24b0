package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"incdb/internal/api"
	"incdb/internal/obs"
	"incdb/internal/plan"
)

// handleTraces serves GET /v1/traces: recently finished root spans from
// this server's ring, newest first. ?limit bounds the count (default 20).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "bad limit %q", v))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, api.TracesResponse{Spans: s.tracer.Recent(limit)})
}

// handleTrace serves GET /v1/traces/{id}: every span this server holds for
// one trace, ordered by start time. Each server keeps its own ring, so a
// distributed trace is assembled by asking the primary and its replicas
// for the same ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		s.fail(w, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no spans for trace %q", id))
		return
	}
	writeJSON(w, http.StatusOK, api.TraceResponse{TraceID: id, Spans: spans})
}

// walFsyncSpan is the store Observer's Flush callback, set only when
// tracing is on: the group-commit flush leader calls it once per traced
// record after the fsync, and each call becomes a wal.fsync span parented
// on the committing request's wal.commit span — so the fsync a write
// actually waited on shows up in its trace, even though a different
// request may have led the flush.
func (s *Server) walFsyncSpan(traceparent string, records, bytes int, start time.Time, d time.Duration) {
	sc, ok := obs.ParseTraceParent(traceparent)
	if !ok {
		return
	}
	sp := s.tracer.StartLinked("wal.fsync", sc, false)
	sp.SetStart(start)
	sp.Attr("records", strconv.Itoa(records))
	sp.Attr("bytes", strconv.Itoa(bytes))
	sp.EndWithDuration(d)
}

// spanPlanNodes synthesizes per-plan-node child spans from a detail
// trace's actuals — the trace-detail view of EXPLAIN ANALYZE's numbers.
// Node wall time is inclusive and, for oracle procedures, accumulated
// across every enumerated world; all node spans share the evaluation's
// start because the plan stream interleaves rather than sequences them.
func (s *Server) spanPlanNodes(esp *obs.Span, tr *plan.Trace, evalStart time.Time) {
	for i, na := range tr.NodeActuals() {
		sp := esp.StartChild(fmt.Sprintf("plan.%s", na.Op))
		sp.SetStart(evalStart)
		sp.Attr("node", strconv.Itoa(i))
		sp.Attr("depth", strconv.Itoa(na.Depth))
		sp.Attr("rows", strconv.FormatInt(na.Rows, 10))
		sp.Attr("batches", strconv.FormatInt(na.Batches, 10))
		sp.EndWithDuration(time.Duration(na.WallNs))
	}
}
