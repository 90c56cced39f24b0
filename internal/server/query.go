package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/core"
	"incdb/internal/ctable"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/store"
	"incdb/internal/translate"
	"incdb/internal/value"
)

// ctableStrategies maps the ctable-* procedure names.
var ctableStrategies = map[string]ctable.Strategy{
	"ctable-eager": ctable.Eager,
	"ctable-semi":  ctable.SemiEager,
	"ctable-lazy":  ctable.Lazy,
	"ctable-aware": ctable.Aware,
}

// Procs lists every evaluation procedure /v1/query accepts, in display
// order. It is the single source the evaluate dispatch, the error message
// and the incdbctl client's command recognition all derive from.
func Procs() []string {
	return []string{"sql", "naive", "cert", "inter", "plus", "poss",
		"ctable-eager", "ctable-semi", "ctable-lazy", "ctable-aware"}
}

// KnownProc reports whether name is an accepted procedure.
func KnownProc(name string) bool {
	switch name {
	case "sql", "naive", "cert", "inter", "plus", "poss":
		return true
	}
	_, ok := ctableStrategies[name]
	return ok
}

func procName(proc string) string {
	if proc == "" {
		return "sql"
	}
	return proc
}

// evaluate runs one query request against the session database. The caller
// holds the session read lock; every path below is read-only on the
// database and shares the session's prepared-plan cache, so concurrent
// requests reuse each other's prepared state. tr accumulates execution
// counters (worlds enumerated, frozen-part reuse) across every plan the
// request runs — the oracle paths hand it to their per-world evaluations
// via Options.Trace; the ctable strategies keep their own machinery and
// contribute nothing. Results are identical with tr nil. ctx cancels the
// oracles' enumeration: they return its error.
func (s *Server) evaluate(ctx context.Context, sess *session, req *api.QueryRequest, tr *plan.Trace) ([]api.Resultset, error) {
	q, err := raparse.ParseQuery(req.Query)
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(q, sess.db); err != nil {
		return nil, err
	}
	db := sess.db
	proc := procName(req.Proc)
	certOpts := certain.Options{
		MaxWorlds: req.MaxWorlds,
		Workers:   s.opts.Workers,
		Prep:      sess.prep,
		Trace:     tr,
		Ctx:       ctx,
	}
	if certOpts.MaxWorlds <= 0 {
		certOpts.MaxWorlds = s.opts.MaxWorlds
	}

	one := func(name string, r *relation.Relation) []api.Resultset {
		return []api.Resultset{resultset(name, r)}
	}
	// direct evaluates q (or a rewriting of it) through the session's
	// prepared-plan cache: the base database is its own world under the
	// identity valuation, so Prepared.Exec(db) matches a fresh evaluation
	// while reusing every frozen part across requests.
	direct := func(e algebra.Expr, mode algebra.Mode, bag bool) *relation.Relation {
		return sess.prep.Get(db, e, mode, bag).ExecTraced(db, tr)
	}

	switch proc {
	case "sql":
		return one(proc, direct(q, algebra.ModeSQL, req.Bag)), nil
	case "naive":
		return one(proc, direct(q, algebra.ModeNaive, req.Bag)), nil
	case "cert":
		r, err := certain.WithNulls(db, q, certOpts)
		if err != nil {
			return nil, err
		}
		return one("cert⊥", r), nil
	case "inter":
		r, err := certain.Intersection(db, q, certOpts)
		if err != nil {
			return nil, err
		}
		return one("cert∩", r), nil
	case "plus", "poss":
		r, err := approx(db, q, proc, direct)
		if err != nil {
			return nil, err
		}
		name := "Q+"
		if proc == "poss" {
			name = "Q?"
		}
		return one(name, r), nil
	default:
		strat, ok := ctableStrategies[proc]
		if !ok {
			return nil, fmt.Errorf("unknown proc %q (want one of %s)", req.Proc, strings.Join(Procs(), ", "))
		}
		cpart, ppart, err := core.CTableAnswersWith(db, q, strat, engine.Options{Workers: s.opts.Workers})
		if err != nil {
			return nil, err
		}
		return []api.Resultset{resultset("certain", cpart), resultset("possible", ppart)}, nil
	}
}

// approx evaluates the Figure 2(b) rewritings through the prepared cache:
// Q⁺ and Q? are plain naive evaluations of rewritten queries, so they reuse
// frozen parts exactly like sql/naive do.
func approx(db *relation.Database, q algebra.Expr, proc string,
	direct func(algebra.Expr, algebra.Mode, bool) *relation.Relation) (*relation.Relation, error) {
	plus, poss, err := translate.Fig2b(q)
	if err != nil {
		return nil, err
	}
	rew := plus
	if proc == "poss" {
		rew = poss
	}
	return direct(rew, algebra.ModeNaive, false), nil
}

// prepProcs are the procedures whose evaluation flows through the
// session's prepared-plan cache (the ctable strategies keep their own row
// machinery): exactly the ones worth recording as warm keys for recovery.
var prepProcs = map[string]bool{
	"sql": true, "naive": true, "cert": true, "inter": true, "plus": true, "poss": true,
}

// recordWarm notes a successfully served query in the session's warm set;
// durable snapshots persist the set so recovery re-prepares the working
// set before the first request.
func (s *Server) recordWarm(sess *session, req *api.QueryRequest) {
	proc := procName(req.Proc)
	if !prepProcs[proc] {
		return
	}
	sess.warm.record(store.WarmKey{Query: req.Query, Proc: proc, Bag: req.Bag})
}

// warmSession re-prepares the recorded warm keys against the session's
// current database, mirroring exactly the prep.Get calls each procedure's
// evaluation performs — so the first post-recovery request finds the same
// cache state a warmed-up server would have. Best effort: keys that no
// longer parse or validate (the schema may have moved past them) are
// skipped.
func (s *Server) warmSession(sess *session, keys []store.WarmKey) {
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	for _, k := range keys {
		q, err := raparse.ParseQuery(k.Query)
		if err != nil {
			continue
		}
		if err := algebra.Validate(q, sess.db); err != nil {
			continue
		}
		switch k.Proc {
		case "sql":
			sess.prep.Get(sess.db, q, algebra.ModeSQL, k.Bag)
		case "naive":
			sess.prep.Get(sess.db, q, algebra.ModeNaive, k.Bag)
		case "cert", "inter":
			// The oracles evaluate per world through a ModeNaive set-
			// semantics prepared plan.
			sess.prep.Get(sess.db, q, algebra.ModeNaive, false)
		case "plus", "poss":
			plusQ, possQ, err := translate.Fig2b(q)
			if err != nil {
				continue
			}
			rew := plusQ
			if k.Proc == "poss" {
				rew = possQ
			}
			sess.prep.Get(sess.db, rew, algebra.ModeNaive, false)
		}
	}
}

// explain renders the plan for the request's query; the caller holds the
// session read lock. The structured form comes from the same rendering
// path incdbctl explain uses (plan.Describe), drawing prepared state from
// the session's cache: the frozen/Δ/barrier markers reflect exactly the
// Prepared a subsequent query will reuse, and explaining warms the cache
// for it.
func (s *Server) explain(sess *session, req *api.ExplainRequest) (*plan.ExplainInfo, error) {
	q, err := raparse.ParseQuery(req.Query)
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(q, sess.db); err != nil {
		return nil, err
	}
	mode := algebra.ModeNaive
	if req.SQL {
		mode = algebra.ModeSQL
	}
	if req.Analyze {
		return plan.DescribeAnalyze(q, sess.db, mode, req.Bag, sess.db, sess.prep), nil
	}
	return plan.DescribeCached(q, sess.db, mode, req.Bag, sess.db, sess.prep), nil
}

// resultset renders a relation for the wire: deterministic row order,
// values in the database text format (nulls as _k), multiplicities only
// when some row's differs from one.
func resultset(name string, r *relation.Relation) api.Resultset {
	out := api.Resultset{Name: name, Columns: append([]string(nil), r.Attrs()...), Rows: [][]string{}}
	var mults []int
	hasMult := false
	r.Each(func(t value.Tuple, m int) {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = renderValue(v)
		}
		out.Rows = append(out.Rows, row)
		mults = append(mults, m)
		if m != 1 {
			hasMult = true
		}
	})
	if hasMult {
		out.Mults = mults
	}
	return out
}

func renderValue(v value.Value) string {
	if v.IsNull() {
		return "_" + strconv.FormatUint(v.NullID(), 10)
	}
	return v.ConstVal()
}
