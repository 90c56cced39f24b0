package server

import (
	"context"
	"errors"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/core"
	"incdb/internal/obs"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/store"
)

// servedProc resolves a request's proc field (empty means sql) against the
// procedure table.
func servedProc(name string) (*core.Proc, *api.Error) {
	if name == "" {
		name = "sql"
	}
	if p := core.Lookup(name); p != nil && p.Served {
		return p, nil
	}
	var served []string
	for _, p := range core.Procs {
		if p.Served {
			served = append(served, p.Name)
		}
	}
	return nil, api.Errorf(http.StatusUnprocessableEntity, api.CodeBadQuery,
		"unknown proc %q (want one of %s)", name, strings.Join(served, ", "))
}

// handleQuery is the read pipeline, one stage after another, each wrapped
// once for its span:
//
//	decode → resolve session → consistency wait → result_cache.lookup
//	       → admission.wait → evaluate (parse, validate, core.Run) → finish
//
// A result-cache hit skips the two middle stages: it is keyed on the raw
// request text, so it parses nothing and takes no evaluation slot.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if aerr := decode(w, r, &req, false); aerr != nil {
		s.fail(w, aerr)
		return
	}
	proc, aerr := servedProc(req.Proc)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	sess, aerr := s.resolve(r)
	if aerr != nil {
		s.fail(w, aerr)
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
	resp := api.QueryResponse{Session: sess.name, Proc: proc.Name, Query: req.Query}

	// A byte-identical repeated request against an unchanged database is
	// answered from the result cache — O(1) regardless of what the query
	// costs to evaluate: the answer is already encoded.
	csp := sp.StartChild("result_cache.lookup")
	sess.mu.RLock()
	resp.Versions = sess.db.Versions()
	var results []byte
	results, resp.Cached = sess.results.get(resultKey(&req, proc.Name))
	sess.mu.RUnlock()
	csp.Attr("hit", strconv.FormatBool(resp.Cached))
	csp.End()

	slowPlan := ""
	if !resp.Cached {
		if aerr := s.acquire(r.Context()); aerr != nil {
			s.fail(w, aerr)
			return
		}
		defer s.release()
		if results, slowPlan, aerr = s.evaluate(r.Context(), sess, proc, &req, start, &resp); aerr != nil {
			s.fail(w, aerr)
			return
		}
		s.obs.queryWorlds.Observe(float64(resp.Worlds))
		s.obs.worlds.Add(uint64(resp.Worlds))
		s.obs.frozenReuse.Add(uint64(resp.FrozenReuse))
	}

	// Finish, the same for cached and evaluated answers.
	sess.queries.Add(1)
	if proc.Plan != nil {
		// The plan-backed procedures are the ones worth re-preparing after a
		// recovery: durable snapshots persist the set.
		sess.warm.record(store.WarmKey{Query: req.Query, Proc: proc.Name, Bag: req.Bag})
	}
	elapsed := time.Since(start)
	resp.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	resp.Epoch = s.epoch.Load()
	resp.TraceID = sp.ExemplarRef()
	s.obs.queries.With(proc.Name, sess.name).Inc()
	// Cache hits are real served latency: they land in the histogram under
	// cache="hit" so `incdbctl top` quantiles reflect what clients actually
	// experienced, not just evaluation cost.
	cache := "miss"
	if resp.Cached {
		cache = "hit"
	}
	s.obs.queryLatency.With(proc.Name, sess.name, cache).ObserveExemplar(elapsed.Seconds(), resp.TraceID)
	if slowPlan != "" {
		s.logSlow(r, &resp, slowPlan)
	}
	writeBody(w, http.StatusOK, api.AppendQueryResponse(make([]byte, 0, len(results)+512), &resp, results))
}

// parsed runs f on the parsed query text, validated against the session
// database, under the session read lock — the lock every evaluation,
// explain and warm-up holds, so they always see one consistent database
// and cache guards are checked against it.
func (sess *session) parsed(text string, f func(q algebra.Expr) error) error {
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	q, err := raparse.ParseQuery(text)
	if err != nil {
		return err
	}
	if err := algebra.Validate(q, sess.db); err != nil {
		return err
	}
	return f(q)
}

// evaluate is the pipeline's evaluation stage: core.Run on the session
// database through the session's prepared-plan cache (so concurrent
// requests reuse each other's prepared state), filling resp's counters and
// returning the encoded "results" array, which it also stores in the result
// cache before the read lock is released, so no mutation can come between
// the evaluation and the entry. The request context cancels the oracles'
// enumeration. slowPlan is the optimized logical expression, rendered only
// when evaluation ran past -slow-query.
func (s *Server) evaluate(ctx context.Context, sess *session, proc *core.Proc, req *api.QueryRequest, start time.Time, resp *api.QueryResponse) (results []byte, slowPlan string, aerr *api.Error) {
	sp := obs.SpanFromContext(ctx)
	esp := sp.StartChild("evaluate")
	defer esp.End()
	esp.Attr("proc", proc.Name)
	// The trace rides along every evaluation: its counters (worlds
	// enumerated, frozen-part reuse) are two atomic adds per plan
	// execution, cheap enough to keep always on. Per-node detail is
	// opt-in per request (trace_detail on a sampled trace): the traced
	// stream never reorders or buffers batches, so results are
	// byte-identical either way.
	tr := plan.NewTrace(req.TraceDetail && sp.Sampled())
	opts := certain.Options{MaxWorlds: req.MaxWorlds, Workers: s.opts.Workers, Trace: tr}
	if opts.MaxWorlds <= 0 {
		opts.MaxWorlds = s.opts.MaxWorlds
	}
	evalStart := time.Now()
	err := sess.parsed(req.Query, func(q algebra.Expr) error {
		opts.Prep = sess.prep
		resp.Versions = sess.db.Versions()
		var rels []plan.Result
		var err error
		// pprof labels segment -pprof-addr CPU profiles by workload; the
		// trace ID lets a profile sample be joined back to its trace.
		pprof.Do(ctx, pprof.Labels("session", sess.name, "proc", proc.Name, "trace_id", sp.TraceID()),
			func(ctx context.Context) {
				opts.Ctx = ctx
				rels, err = core.Run(proc, sess.db, q, req.Bag, opts)
			})
		if err != nil {
			return err
		}
		// A Result shares the prepared frozen part, which the next append
		// advances in place: encode it before the read lock is released.
		results = api.AppendResults(nil, proc.Labels, rels)
		sess.results.put(resultKey(req, proc.Name), results)
		if s.opts.SlowQuery > 0 && time.Since(start) >= s.opts.SlowQuery {
			slowPlan = plan.OptimizedFor(q, sess.db).String()
		}
		return nil
	})
	resp.Worlds, resp.FrozenReuse = tr.Execs.Load(), tr.FrozenReuse.Load()
	if err != nil {
		esp.SetError(err.Error())
		if cause := ctx.Err(); cause != nil && errors.Is(err, cause) {
			// The client is gone or out of time: the enumeration stopped
			// at its next poll and the caller's release frees the slot.
			s.obs.cancelled.Inc()
			return nil, "", api.Errorf(statusClientClosedRequest, api.CodeRequestCancelled,
				"query abandoned after %d worlds: %v", resp.Worlds, err)
		}
		return nil, "", api.Errorf(http.StatusUnprocessableEntity, api.CodeBadQuery, "%v", err)
	}
	esp.Attr("worlds", strconv.FormatInt(resp.Worlds, 10))
	s.spanPlanNodes(esp, tr, evalStart)
	return results, slowPlan, nil
}

// warmSession adopts warm keys a snapshot carried (oldest first) and
// re-prepares them against the session's current database through the same
// table rows evaluation runs (core.Warm), so the first request after a
// recovery, restore or bootstrap finds the cache state a warmed-up server
// would have. Best effort: keys that no longer parse, validate or translate
// (the schema may have moved past them) are skipped.
func (s *Server) warmSession(sess *session, keys []store.WarmKey) {
	for _, k := range keys {
		sess.warm.record(k)
		if p := core.Lookup(k.Proc); p != nil {
			_ = sess.parsed(k.Query, func(q algebra.Expr) error {
				return core.Warm(p, sess.db, q, k.Bag, sess.prep)
			})
		}
	}
}

// handleExplain renders the plan for the request's query through the same
// resolve, admission and read-lock stages a query takes. The structured
// form comes from the same rendering path incdbctl explain uses
// (plan.Describe), drawing prepared state from the session's cache: the
// frozen/Δ/barrier markers reflect exactly the Prepared a subsequent query
// will reuse, and explaining warms the cache for it.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req api.ExplainRequest
	if aerr := decode(w, r, &req, false); aerr != nil {
		s.fail(w, aerr)
		return
	}
	sess, aerr := s.resolve(r)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}
	if aerr := s.acquire(r.Context()); aerr != nil {
		s.fail(w, aerr)
		return
	}
	defer s.release()
	mode := algebra.ModeNaive
	if req.SQL {
		mode = algebra.ModeSQL
	}
	var info *plan.ExplainInfo
	err := sess.parsed(req.Query, func(q algebra.Expr) error {
		info = plan.Describe(q, sess.db, mode, req.Bag, sess.prep, req.Analyze)
		return nil
	})
	if err != nil {
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeBadQuery, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.ExplainResponse{Session: sess.name, Plan: info, Text: info.Text()})
}
