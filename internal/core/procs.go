package core

import (
	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/ctable"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/translate"
)

// Proc is one row of the procedure table: everything that distinguishes one
// evaluation procedure of the paper from another. The incdbd query
// pipeline, its recovery warm-up, the incdbctl modes and REPL, and this
// package's own front-ends all read the table instead of switching on
// names; a new procedure is one more row.
type Proc struct {
	// Name is the wire name (QueryRequest.Proc) and the incdbctl -mode.
	Name string
	// Labels name the result sets Run returns, in order.
	Labels []string
	// Plan gives, for a plan-backed procedure, the expression the planner
	// executes for q and the mode it executes it in; db is consulted only
	// by rewritings that need the catalogue (Figure 2(a)'s Dom^k). Nil for
	// the c-table strategies, which run their own row machinery.
	Plan planFunc
	// Bag reports that the procedure honours bag semantics; the others
	// ignore the flag.
	Bag bool
	// Served reports that incdbd's /v1/query accepts the procedure.
	Served bool
	// Rewriting, Eval, Guarantee and Ref are the documentation columns of
	// the README's procedures table (core_test checks the two agree).
	Rewriting, Eval, Guarantee, Ref string

	// oracle is set on the exact procedures: it evaluates Plan's expression
	// once per valuation (bounded by MaxWorlds, sharded over Workers)
	// rather than once on the database itself.
	oracle   func(*relation.Database, algebra.Expr, certain.Options) (*relation.Relation, error)
	strategy ctable.Strategy // of a c-table row
}

type planFunc = func(q algebra.Expr, db *relation.Database) (algebra.Expr, algebra.Mode, error)

// identity plans q itself under mode.
func identity(mode algebra.Mode) planFunc {
	return func(q algebra.Expr, _ *relation.Database) (algebra.Expr, algebra.Mode, error) { return q, mode, nil }
}

// fig2a and fig2b plan one side of a Figure 2 translation pair under naive
// evaluation.
func fig2a(side int) planFunc {
	return func(q algebra.Expr, db *relation.Database) (algebra.Expr, algebra.Mode, error) {
		qt, qf, err := translate.Fig2a(q, db)
		return [2]algebra.Expr{qt, qf}[side], algebra.ModeNaive, err
	}
}

func fig2b(side int) planFunc {
	return func(q algebra.Expr, _ *relation.Database) (algebra.Expr, algebra.Mode, error) {
		plus, poss, err := translate.Fig2b(q)
		return [2]algebra.Expr{plus, poss}[side], algebra.ModeNaive, err
	}
}

func ctableProc(name string, s ctable.Strategy, how string) Proc {
	return Proc{Name: name, Labels: []string{"certain", "possible"}, Served: true, strategy: s,
		Rewriting: "conditional tables, " + how, Eval: "condition grounding",
		Guarantee: "certain part ⊆ cert⊥, possible part ⊇ possible answers", Ref: "Thm 4.9"}
}

// Procs is the procedure table, in display order. Read-only: the rows are
// shared by every caller.
var Procs = []Proc{
	{Name: "sql", Labels: []string{"sql"}, Plan: identity(algebra.ModeSQL), Bag: true, Served: true,
		Rewriting: "none", Eval: "three-valued (SQL)",
		Guarantee: "none: false positives and false negatives", Ref: "§1, §5.2"},
	{Name: "naive", Labels: []string{"naive"}, Plan: identity(algebra.ModeNaive), Bag: true, Served: true,
		Rewriting: "none", Eval: "naive",
		Guarantee: "= cert⊥ for UCQ (owa) and Pos∀G (cwa) queries", Ref: "§4.1, Thm 4.4"},
	{Name: "cert", Labels: []string{"cert⊥"}, Plan: identity(algebra.ModeNaive), Served: true,
		oracle:    certain.WithNulls,
		Rewriting: "none", Eval: "naive, once per valuation",
		Guarantee: "exact cert⊥ (exponential in the nulls)", Ref: "Def 3.9"},
	{Name: "inter", Labels: []string{"cert∩"}, Plan: identity(algebra.ModeNaive), Served: true,
		oracle:    certain.Intersection,
		Rewriting: "none", Eval: "naive, once per valuation",
		Guarantee: "exact cert∩ (exponential in the nulls)", Ref: "Def 3.7"},
	{Name: "plus", Labels: []string{"Q+"}, Plan: fig2b(0), Served: true,
		Rewriting: "Q⁺ of Fig. 2(b)", Eval: "naive",
		Guarantee: "⊆ cert⊥; = Q(D) on complete data", Ref: "Thm 4.7"},
	{Name: "poss", Labels: []string{"Q?"}, Plan: fig2b(1), Served: true,
		Rewriting: "Q? of Fig. 2(b)", Eval: "naive",
		Guarantee: "⊇ the possible answers", Ref: "Thm 4.7"},
	{Name: "qt", Labels: []string{"Qt"}, Plan: fig2a(0),
		Rewriting: "Qᵗ of Fig. 2(a)", Eval: "naive",
		Guarantee: "⊆ cert⊥ (certainly true)", Ref: "Thm 4.6"},
	{Name: "qf", Labels: []string{"Qf"}, Plan: fig2a(1),
		Rewriting: "Qᶠ of Fig. 2(a), over Dom^k", Eval: "naive",
		Guarantee: "⊆ cert⊥ of ¬Q (certainly false); infeasible beyond toy sizes", Ref: "Thm 4.6"},
	ctableProc("ctable-eager", ctable.Eager, "eager grounding"),
	ctableProc("ctable-semi", ctable.SemiEager, "semi-eager grounding"),
	ctableProc("ctable-lazy", ctable.Lazy, "lazy grounding"),
	ctableProc("ctable-aware", ctable.Aware, "null-aware"),
}

// Lookup returns the row named name, or nil.
func Lookup(name string) *Proc {
	for i := range Procs {
		if Procs[i].Name == name {
			return &Procs[i]
		}
	}
	return nil
}

// Run evaluates q on db under procedure p and returns one result per
// p.Labels entry. bag asks for bag semantics and is ignored by rows that do
// not honour it. opts carries the oracle bounds plus the shared execution
// context of every row: with opts.Prep the plan-backed rows draw their
// prepared plan from the cache — the base database is its own world under
// the identity valuation, so Prepared.Result(db) matches a fresh evaluation
// while reusing every frozen part across calls — and without it they
// execute one-shot; opts.Trace accumulates their execution counters. The
// c-table rows read no field of opts. A result drawn from the cache shares
// the prepared frozen part: it is valid until db changes (plan.Result), and
// Relation gives a copy that outlives that.
func Run(p *Proc, db *relation.Database, q algebra.Expr, bag bool, opts certain.Options) ([]plan.Result, error) {
	if p.Plan == nil {
		c, poss, err := CTableAnswers(db, q, p.strategy)
		if err != nil {
			return nil, err
		}
		return []plan.Result{plan.ResultOf(c), plan.ResultOf(poss)}, nil
	}
	e, mode, err := p.Plan(q, db)
	if err != nil {
		return nil, err
	}
	var r plan.Result
	switch {
	case p.oracle != nil:
		var rel *relation.Relation
		rel, err = p.oracle(db, e, opts)
		r = plan.ResultOf(rel)
	case opts.Prep != nil:
		r = opts.Prep.Get(db, e, mode, bag && p.Bag).Result(db, opts.Trace)
	default:
		r = plan.ResultOf(plan.PlanFor(e, db, mode, bag && p.Bag).ExecTraced(db, opts.Trace))
	}
	if err != nil {
		return nil, err
	}
	return []plan.Result{r}, nil
}

// Warm prepares into cache exactly the plan Run(p, db, q, bag, {Prep:
// cache}) executes, without executing it, so that a later Run finds it; a
// no-op for rows that are not plan-backed.
func Warm(p *Proc, db *relation.Database, q algebra.Expr, bag bool, cache *plan.PrepCache) error {
	if p.Plan == nil {
		return nil
	}
	e, mode, err := p.Plan(q, db)
	if err != nil {
		return err
	}
	cache.Get(db, e, mode, bag && p.Bag)
	return nil
}

// oneShot runs the named single-result row without a prepared-plan cache.
func oneShot(name string, db *relation.Database, q algebra.Expr) (*relation.Relation, error) {
	rs, err := Run(Lookup(name), db, q, false, certain.Options{})
	if err != nil {
		return nil, err
	}
	return rs[0].Relation(), nil
}
