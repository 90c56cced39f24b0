package ctable

import (
	"fmt"

	"incdb/internal/algebra"
	"incdb/internal/logic"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// CTuple is a conditional tuple ⟨t̄, φ⟩: t̄ belongs to the relation exactly
// in the possible worlds whose valuation satisfies φ.
type CTuple struct {
	T   value.Tuple
	Phi Formula
}

// CTable is a conditional relation: a list of c-tuples of fixed arity.
type CTable struct {
	Arity int
	Rows  []CTuple
}

// Strategy selects one of the four evaluation algorithms of [36].
type Strategy int

const (
	// Eager grounds conditions to {t,f,u} immediately after every
	// operator.
	Eager Strategy = iota
	// SemiEager additionally propagates forced equalities into tuples
	// before grounding (⟨⊥₂, ⊥₁=c ∧ ⊥₁=⊥₂⟩ becomes ⟨c, u⟩).
	SemiEager
	// Lazy propagates and grounds only at difference operators and once
	// at the very end.
	Lazy
	// Aware postpones everything to the end and grounds a minimal
	// rewriting of the conditions, catching tautologies and
	// unsatisfiable conditions that stepwise grounding misses.
	Aware
)

func (s Strategy) String() string {
	switch s {
	case Eager:
		return "eager"
	case SemiEager:
		return "semi-eager"
	case Lazy:
		return "lazy"
	case Aware:
		return "aware"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Eval evaluates q over db as a conditional table under the given
// strategy. The supported fragment is the core relational algebra of the
// Figure 2 translations (σ, π, ×, ∪, −, ∩); conditions may use
// comparisons but not IN subqueries. Every step is linear in the rows it
// reads (quadratic for ×, − and ∩), so it runs on the calling goroutine.
//
// Before evaluation the query runs through the planner's logical optimizer
// (plan.Optimize): selection conjuncts are split and pushed below products
// and unions, so rows whose conditions ground to f are dropped before the
// quadratic product and difference steps instead of after them. The
// rewrites stay inside the c-table fragment, and all four strategies see
// the same optimized shape, preserving the Theorem 4.9 inclusion ordering
// (which is a per-query statement).
func Eval(db *relation.Database, q algebra.Expr, s Strategy) (out *CTable, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("ctable: %v", r)
		}
	}()
	checkFragment(q)
	// The cached optimizer shares one logical rewrite per (query, schema)
	// with the planner, so repeated c-table evaluations of the same query
	// (server workloads) skip re-optimizing.
	q = plan.OptimizedFor(q, db)
	return finalize(eval(db, q, s), s), nil
}

// EvalTrue returns Eval⋆_t(Q, D) of (9a): the tuples whose final condition
// grounds to t. By Theorem 4.9 these are certain answers.
func EvalTrue(db *relation.Database, q algebra.Expr, s Strategy) (*relation.Relation, error) {
	ct, err := Eval(db, q, s)
	if err != nil {
		return nil, err
	}
	return ct.Extract(true), nil
}

// EvalPossible returns Eval⋆_p(Q, D) of (9b): tuples whose final condition
// grounds to t or u.
func EvalPossible(db *relation.Database, q algebra.Expr, s Strategy) (*relation.Relation, error) {
	ct, err := Eval(db, q, s)
	if err != nil {
		return nil, err
	}
	return ct.Extract(false), nil
}

// Extract converts the grounded c-table into a plain relation: onlyTrue
// keeps condition t, otherwise t and u.
func (c *CTable) Extract(onlyTrue bool) *relation.Relation {
	out := relation.NewArity("eval", c.Arity)
	for _, row := range c.Rows {
		switch Ground(row.Phi) {
		case logic.T:
			out.Add(row.T)
		case logic.U:
			if !onlyTrue {
				out.Add(row.T)
			}
		}
	}
	return out
}

// maxProductRows bounds the c-rows one product may build. Past it Eval
// refuses the query rather than let the allocation take the process down;
// the largest product the TPC-H queries build within it is Q4's 300 × 743.
const maxProductRows = 1 << 20

func eval(db *relation.Database, q algebra.Expr, s Strategy) *CTable {
	switch q := q.(type) {
	case algebra.Rel:
		src := db.Relation(q.Name)
		if src == nil {
			panic("unknown relation " + q.Name)
		}
		ct := &CTable{Arity: src.Arity()}
		src.Each(func(t value.Tuple, _ int) {
			// Stored tuples are immutable and every downstream rewrite
			// (Project, Concat, SubstituteTuple) builds fresh tuples, so the
			// c-table shares them instead of cloning per row.
			ct.Rows = append(ct.Rows, CTuple{T: t, Phi: FTrue{}})
		})
		return ct

	case algebra.Select:
		in := eval(db, q.In, s)
		out := &CTable{Arity: in.Arity, Rows: make([]CTuple, len(in.Rows))}
		for i, row := range in.Rows {
			out.Rows[i] = CTuple{T: row.T, Phi: FAnd{row.Phi, condFormula(q.Cond, row.T)}}
		}
		return process(out, s, false)

	case algebra.Project:
		in := eval(db, q.In, s)
		out := &CTable{Arity: len(q.Cols), Rows: make([]CTuple, len(in.Rows))}
		for i, row := range in.Rows {
			out.Rows[i] = CTuple{T: row.T.Project(q.Cols), Phi: row.Phi}
		}
		return process(out, s, false)

	case algebra.Product:
		l, r := eval(db, q.L, s), eval(db, q.R, s)
		if len(l.Rows) > 0 && len(r.Rows) > maxProductRows/len(l.Rows) {
			panic(fmt.Sprintf("product of %d × %d c-rows exceeds %d", len(l.Rows), len(r.Rows), maxProductRows))
		}
		out := &CTable{Arity: l.Arity + r.Arity, Rows: make([]CTuple, 0, len(l.Rows)*len(r.Rows))}
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				out.Rows = append(out.Rows, CTuple{T: lr.T.Concat(rr.T), Phi: FAnd{lr.Phi, rr.Phi}})
			}
		}
		return process(out, s, false)

	case algebra.Union:
		l, r := eval(db, q.L, s), eval(db, q.R, s)
		out := &CTable{Arity: l.Arity}
		out.Rows = append(out.Rows, l.Rows...)
		out.Rows = append(out.Rows, r.Rows...)
		return process(out, s, false)

	case algebra.Diff:
		l, r := eval(db, q.L, s), eval(db, q.R, s)
		out := &CTable{Arity: l.Arity, Rows: make([]CTuple, len(l.Rows))}
		for i, lr := range l.Rows {
			phi := lr.Phi
			for _, rr := range r.Rows {
				// A subtrahend row that cannot unify with lr.T is certainly
				// different in every world: its conjunct ¬(φ ∧ f) is ⊤, so
				// skipping it leaves the grounding (and the aware
				// minimization) of the row condition unchanged while the
				// formula stays linear in the rows that can actually match.
				if !value.Unifiable(lr.T, rr.T) {
					continue
				}
				phi = FAnd{phi, FNot{FAnd{rr.Phi, EqTuples(lr.T, rr.T)}}}
			}
			out.Rows[i] = CTuple{T: lr.T, Phi: phi}
		}
		return process(out, s, true)

	case algebra.Intersect:
		l, r := eval(db, q.L, s), eval(db, q.R, s)
		out := &CTable{Arity: l.Arity, Rows: make([]CTuple, len(l.Rows))}
		for i, lr := range l.Rows {
			var match Formula = FFalse{}
			first := true
			for _, rr := range r.Rows {
				// Mirror image of the difference case: a right row that
				// cannot unify contributes the disjunct φ ∧ f ≡ ⊥, which is
				// the identity of the fold (and of its FFalse base case).
				if !value.Unifiable(lr.T, rr.T) {
					continue
				}
				m := FAnd{rr.Phi, EqTuples(lr.T, rr.T)}
				if first {
					match = m
					first = false
				} else {
					match = FOr{match, m}
				}
			}
			out.Rows[i] = CTuple{T: lr.T, Phi: FAnd{lr.Phi, match}}
		}
		return process(out, s, true)
	}
	panic(fmt.Sprintf("operator %T is outside the c-table fragment", q))
}

// checkFragment rejects operators outside the c-table fragment up front,
// so that queries are refused even when the offending node would see no
// rows (e.g. a selection over an empty relation).
func checkFragment(q algebra.Expr) {
	algebra.Walk(q, func(e algebra.Expr) bool {
		switch e.(type) {
		case algebra.Rel, algebra.Select, algebra.Project, algebra.Product, algebra.Union, algebra.Diff, algebra.Intersect:
			return true
		}
		panic(fmt.Sprintf("operator %T is outside the c-table fragment", e))
	}, func(c algebra.Cond) bool {
		if _, ok := c.(algebra.InSub); ok {
			panic("IN subqueries are outside the c-table fragment")
		}
		return true
	})
}

// condFormula instantiates a selection condition on a concrete tuple.
// const/null tests are trivial on possible worlds (Section 3.1), matching
// the translate package's normalization.
func condFormula(c algebra.Cond, t value.Tuple) Formula {
	switch c := c.(type) {
	case algebra.True:
		return FTrue{}
	case algebra.False:
		return FFalse{}
	case algebra.Eq:
		return FEq{t[c.I], t[c.J]}
	case algebra.EqConst:
		return FEq{t[c.I], c.C}
	case algebra.Neq:
		return FNeq{t[c.I], t[c.J]}
	case algebra.NeqConst:
		return FNeq{t[c.I], c.C}
	case algebra.Less:
		return FLess{t[c.I], t[c.J]}
	case algebra.LessConst:
		return FLess{t[c.I], c.C}
	case algebra.GreaterConst:
		return FLess{c.C, t[c.I]}
	case algebra.IsConst:
		return FTrue{}
	case algebra.IsNull:
		return FFalse{}
	case algebra.And:
		return FAnd{condFormula(c.L, t), condFormula(c.R, t)}
	case algebra.Or:
		return FOr{condFormula(c.L, t), condFormula(c.R, t)}
	case algebra.Not:
		return FNot{condFormula(c.C, t)}
	}
	panic(fmt.Sprintf("condition %T is outside the c-table fragment", c))
}

// process applies the strategy's per-operator treatment. afterDiff marks
// operators at which the lazy strategy grounds.
func process(ct *CTable, s Strategy, afterDiff bool) *CTable {
	switch s {
	case Eager:
		return groundAll(ct, false)
	case SemiEager:
		return groundAll(ct, true)
	case Lazy:
		if afterDiff {
			return groundAll(ct, true)
		}
		return ct
	case Aware:
		return ct
	}
	panic(fmt.Sprintf("unknown strategy %v", s))
}

// finalize applies the end-of-query treatment.
func finalize(ct *CTable, s Strategy) *CTable {
	switch s {
	case Eager:
		return ct // already grounded stepwise
	case SemiEager:
		return ct
	case Lazy:
		return groundAll(ct, true)
	case Aware:
		min := &CTable{Arity: ct.Arity, Rows: make([]CTuple, len(ct.Rows))}
		for i, row := range ct.Rows {
			min.Rows[i] = CTuple{T: row.T, Phi: Minimize(row.Phi)}
		}
		return groundAll(min, true)
	}
	panic(fmt.Sprintf("unknown strategy %v", s))
}

// groundAll grounds every row's condition to a literal, dropping f rows.
// With propagate set, forced equalities are first substituted into the
// tuple (the semi-eager refinement).
func groundAll(ct *CTable, propagate bool) *CTable {
	out := &CTable{Arity: ct.Arity}
	for _, row := range ct.Rows {
		tv := Ground(row.Phi)
		if tv == logic.F {
			continue
		}
		t := row.T
		if propagate && tv == logic.U {
			if m := ForcedEqualities(row.Phi); len(m) > 0 {
				t = SubstituteTuple(t, m)
			}
		}
		out.Rows = append(out.Rows, CTuple{T: t, Phi: FromTV(tv)})
	}
	return out
}

// String renders the c-table deterministically for debugging.
func (c *CTable) String() string {
	s := fmt.Sprintf("ctable/%d {\n", c.Arity)
	for _, row := range c.Rows {
		s += "  ⟨" + row.T.String() + ", " + row.Phi.String() + "⟩\n"
	}
	return s + "}"
}
