package algebra

import (
	"fmt"

	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Mode selects how conditions treat nulls during evaluation.
type Mode int

const (
	// ModeNaive is naive evaluation (Section 4.1): nulls behave as fresh
	// constants and evaluation is two-valued. For unions of conjunctive
	// queries (owa) and Pos∀G queries (cwa) this computes certain answers
	// with nulls (Theorem 4.4).
	ModeNaive Mode = iota
	// ModeSQL is SQL's evaluation: conditions are evaluated in Kleene's
	// three-valued logic, comparisons involving nulls are unknown, and
	// only rows whose condition is t are kept (the ↑ collapse of §5.2).
	ModeSQL
)

func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeSQL:
		return "sql"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// evalEnv carries per-evaluation state: the database, the mode, bag/set
// semantics, a cache of evaluated IN-subqueries (uncorrelated, so one
// evaluation each suffices), and a cache of their null-free/with-nulls
// splits for the three-valued IN probe. Both caches are keyed by the
// expression's rendering, which is a faithful encoding of the AST; the
// rendering is computed once per enclosing selection evaluation (bindCond),
// never per row.
type evalEnv struct {
	db     *relation.Database
	mode   Mode
	bag    bool
	subs   map[string]*relation.Relation
	splits map[string]*inSplit
}

func newEvalEnv(db *relation.Database, mode Mode, bag bool) *evalEnv {
	return &evalEnv{db: db, mode: mode, bag: bag,
		subs: map[string]*relation.Relation{}, splits: map[string]*inSplit{}}
}

func (env *evalEnv) subResult(e Expr) *relation.Relation {
	key := e.String()
	if r, ok := env.subs[key]; ok {
		return r
	}
	// Subquery results are compared set-wise by IN; evaluate as a set.
	sub := &evalEnv{db: env.db, mode: env.mode, bag: false, subs: env.subs, splits: env.splits}
	r := eval(e, sub)
	env.subs[key] = r
	return r
}

// inSplit partitions an IN-subquery result for the three-valued probe: a
// null-free part answered by one hash lookup and the (typically few) rows
// with nulls, the only rows that can make a null-free probe unknown.
type inSplit struct {
	nullFree  *relation.Relation
	withNulls []value.Tuple
}

func (env *evalEnv) inSplitOf(e Expr) *inSplit {
	key := e.String()
	if s, ok := env.splits[key]; ok {
		return s
	}
	sub := env.subResult(e)
	s := &inSplit{nullFree: relation.NewArity("in", sub.Arity())}
	sub.Each(func(t value.Tuple, _ int) {
		if t.HasNull() {
			s.withNulls = append(s.withNulls, t)
		} else {
			s.nullFree.Add(t)
		}
	})
	env.splits[key] = s
	return s
}

// EvalInterp evaluates e on db under set semantics in the given mode with
// the tree-walking reference interpreter. It is the semantic ground truth
// the planner (internal/plan: plan.Eval, plan.Naive, plan.SQL) is
// equivalence-tested against; every served path runs the planner.
func EvalInterp(db *relation.Database, e Expr, mode Mode) *relation.Relation {
	return eval(e, newEvalEnv(db, mode, false))
}

// EvalBagInterp is the bag-semantics (Section 4.2) reference interpreter:
// union adds multiplicities, difference subtracts them to zero, product
// multiplies, projection sums, selection preserves.
func EvalBagInterp(db *relation.Database, e Expr, mode Mode) *relation.Relation {
	return eval(e, newEvalEnv(db, mode, true))
}

func eval(e Expr, env *evalEnv) *relation.Relation {
	switch e := e.(type) {
	case Rel:
		src := env.db.Relation(e.Name)
		if src == nil {
			panic("algebra: unknown relation " + e.Name)
		}
		out := src.Clone()
		if !env.bag {
			out.Normalize()
		}
		return out

	case Select:
		// Hash equi-join: σ with a conjunct equating a left and a right
		// column of a product joins by hashing instead of enumerating the
		// full product. Sound for the keep-t filter in both modes: t
		// requires the equality conjunct to be t, which under ModeSQL
		// means equal constants and under ModeNaive equal values.
		if prod, ok := e.In.(Product); ok {
			if li, ri, ok := crossEqConjunct(e.Cond, prod, env); ok {
				return hashJoin(e, prod, li, ri, env)
			}
		}
		in := eval(e.In, env)
		out := relation.NewArity("σ", in.Arity())
		cond := e.Cond
		if in.Len() > 0 { // empty input: stay lazy, resolve no subqueries
			cond = env.bindCond(cond)
		}
		in.Each(func(t value.Tuple, m int) {
			if evalCond(cond, t, env.mode, env) == logic.T {
				out.AddMult(t, multOf(m, env))
			}
		})
		return out

	case Project:
		in := eval(e.In, env)
		out := relation.NewArity("π", len(e.Cols))
		in.Each(func(t value.Tuple, m int) {
			out.AddMult(t.Project(e.Cols), multOf(m, env))
		})
		if !env.bag {
			out.Normalize()
		}
		return out

	case Product:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("×", l.Arity()+r.Arity())
		l.Each(func(lt value.Tuple, lm int) {
			r.Each(func(rt value.Tuple, rm int) {
				out.AddMult(lt.Concat(rt), multOf(lm*rm, env))
			})
		})
		return out

	case Union:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("∪", l.Arity())
		l.Each(func(t value.Tuple, m int) { out.AddMult(t, m) })
		r.Each(func(t value.Tuple, m int) { out.AddMult(t, m) })
		if !env.bag {
			out.Normalize()
		}
		return out

	case Diff:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("−", l.Arity())
		if env.bag {
			l.Each(func(t value.Tuple, m int) {
				if rest := m - r.Mult(t); rest > 0 {
					out.AddMult(t, rest)
				}
			})
			return out
		}
		l.Each(func(t value.Tuple, _ int) {
			if !r.Contains(t) {
				out.Add(t)
			}
		})
		return out

	case Intersect:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("∩", l.Arity())
		l.Each(func(t value.Tuple, m int) {
			rm := r.Mult(t)
			if rm == 0 {
				return
			}
			if env.bag {
				if rm < m {
					m = rm
				}
				out.AddMult(t, m)
			} else {
				out.Add(t)
			}
		})
		return out

	case Divide:
		// Division is a set-level operator; under bag semantics we follow
		// the standard convention of dividing the underlying sets.
		l, r := eval(e.L, env), eval(e.R, env)
		n := l.Arity() - r.Arity()
		out := relation.NewArity("÷", n)
		cands := relation.NewArity("c", n)
		l.Each(func(t value.Tuple, _ int) { cands.Add(t[:n].Clone()) })
		if r.Len() == 0 {
			// ∀ over an empty set: every (deduplicated — division divides
			// the underlying sets) projection of L qualifies.
			cands.Each(func(a value.Tuple, _ int) { out.Add(a) })
			return out
		}
		cands.Each(func(a value.Tuple, _ int) {
			ok := true
			r.Each(func(b value.Tuple, _ int) {
				if !ok {
					return
				}
				if !l.Contains(a.Concat(b)) {
					ok = false
				}
			})
			if ok {
				out.Add(a)
			}
		})
		return out

	case AntiUnify:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("⋉⇑", l.Arity())
		// Null-free tuples unify iff they are equal, so the common case is
		// a hash probe; only tuples with nulls need the unification scan.
		// This is the same trick the SQL rewritings of [37] play with
		// IS NULL conditions and is what keeps Q⁺ near the original
		// query's cost.
		nullFree := relation.NewArity("nf", r.Arity())
		var withNulls []value.Tuple
		r.Each(func(s value.Tuple, _ int) {
			if s.HasNull() {
				withNulls = append(withNulls, s)
			} else {
				nullFree.Add(s)
			}
		})
		l.Each(func(t value.Tuple, m int) {
			if t.HasNull() {
				// Rare path: scan everything.
				for _, s := range nullFree.Tuples() {
					if value.Unifiable(t, s) {
						return
					}
				}
			} else if nullFree.Contains(t) {
				return
			}
			for _, s := range withNulls {
				if value.Unifiable(t, s) {
					return
				}
			}
			out.AddMult(t, multOf(m, env))
		})
		return out

	case Dom:
		adom := env.db.ActiveDomain()
		out := relation.NewArity("Dom", e.K)
		if e.K == 0 {
			out.Add(value.Tuple{})
			return out
		}
		tuple := make(value.Tuple, e.K)
		var rec func(i int)
		rec = func(i int) {
			if i == e.K {
				out.Add(tuple.Clone())
				return
			}
			for _, v := range adom {
				tuple[i] = v
				rec(i + 1)
			}
		}
		rec(0)
		return out
	}
	panic(fmt.Sprintf("algebra: eval: unknown expression %T", e))
}

func multOf(m int, env *evalEnv) int {
	if env.bag {
		return m
	}
	return 1
}

// crossEqConjunct finds a top-level Eq{I,J} conjunct of cond with I on the
// left side of the product and J on the right (or vice versa). It returns
// the left and right column indices (right one relative to the right
// input).
func crossEqConjunct(cond Cond, prod Product, env *evalEnv) (li, ri int, ok bool) {
	la := Arity(prod.L, env.db)
	var search func(c Cond) (int, int, bool)
	search = func(c Cond) (int, int, bool) {
		switch c := c.(type) {
		case Eq:
			switch {
			case c.I < la && c.J >= la:
				return c.I, c.J - la, true
			case c.J < la && c.I >= la:
				return c.J, c.I - la, true
			}
		case And:
			if i, j, ok := search(c.L); ok {
				return i, j, ok
			}
			return search(c.R)
		}
		return 0, 0, false
	}
	return search(cond)
}

// hashJoin evaluates σ_cond(L × R) by hashing the right input on its join
// column (marked nulls match themselves — Value equality), probing it with
// each left row, then applying the full condition to each candidate pair.
// The condition evaluation keeps the exact mode semantics; hashing only
// prunes pairs whose join equality cannot be t, so each world evaluates in
// near-linear time instead of the |L|·|R| nested loop.
func hashJoin(sel Select, prod Product, li, ri int, env *evalEnv) *relation.Relation {
	l, r := eval(prod.L, env), eval(prod.R, env)
	out := relation.NewArity("σ⋈", l.Arity()+r.Arity())
	cond := sel.Cond
	if l.Len() > 0 {
		cond = env.bindCond(cond)
	}
	type match struct {
		t    value.Tuple
		mult int
	}
	byKey := make(map[value.Value][]match, r.Len())
	r.Each(func(rt value.Tuple, rm int) { byKey[rt[ri]] = append(byKey[rt[ri]], match{rt, rm}) })
	l.Each(func(lt value.Tuple, lm int) {
		key := lt[li]
		if env.mode == ModeSQL && key.IsNull() {
			return // the equality conjunct can never be t
		}
		for _, m := range byKey[key] {
			joined := lt.Concat(m.t)
			if evalCond(cond, joined, env.mode, env) == logic.T {
				out.AddMult(joined, multOf(lm*m.mult, env))
			}
		}
	})
	return out
}

// bindCond resolves every IN-subquery atom of c once, up front: the
// subquery result (and, under ModeSQL, its null-free/with-nulls split) is
// looked up in the env caches a single time and captured in a boundIn atom,
// so the per-row probes touch resolved pointers instead of re-rendering the
// subquery expression on every lookup. Conditions without IN atoms are
// returned unchanged.
func (env *evalEnv) bindCond(c Cond) Cond {
	if !HasIn(c) {
		return c
	}
	switch c := c.(type) {
	case And:
		return And{L: env.bindCond(c.L), R: env.bindCond(c.R)}
	case Or:
		return Or{L: env.bindCond(c.L), R: env.bindCond(c.R)}
	case Not:
		return Not{C: env.bindCond(c.C)}
	case InSub:
		b := boundIn{orig: c, sub: env.subResult(c.Sub)}
		if env.mode == ModeSQL {
			b.split = env.inSplitOf(c.Sub)
		}
		return b
	}
	return c
}

// BooleanResult interprets a zero-ary query result as a truth value: true
// iff it contains the empty tuple (Section 2).
func BooleanResult(r *relation.Relation) bool {
	return r.Contains(value.Tuple{})
}
