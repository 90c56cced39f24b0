package plan

import (
	"fmt"

	"incdb/internal/algebra"
	"incdb/internal/logic"
	"incdb/internal/value"
)

// pcond is a compiled selection condition. Conditions without IN subqueries
// are evaluated directly off the algebra AST; IN atoms are compiled into
// references to shared subplans so that the per-row probe never re-renders
// or re-resolves the subquery.
type pcond interface {
	fmt.Stringer
	eval(x *exec, t value.Tuple) logic.TV
}

// catomic is a condition subtree containing no IN atoms.
type catomic struct{ c algebra.Cond }

// cand/cor/cnot are connectives over subtrees that do contain IN atoms.
type cand struct{ l, r pcond }
type cor struct{ l, r pcond }
type cnot struct{ c pcond }

// cin is a compiled (cols) IN (sub) probe.
type cin struct {
	cols []int
	sub  *Plan
	str  string
}

func (c catomic) String() string { return c.c.String() }
func (c cand) String() string    { return "(" + c.l.String() + " ∧ " + c.r.String() + ")" }
func (c cor) String() string     { return "(" + c.l.String() + " ∨ " + c.r.String() + ")" }
func (c cnot) String() string    { return "¬(" + c.c.String() + ")" }
func (c cin) String() string     { return c.str }

// compileCond compiles one conjunct. The common IN-free case keeps the
// algebra AST and pays no indirection.
func (c *compiler) compileCond(cond algebra.Cond) pcond {
	if !algebra.HasIn(cond) {
		return catomic{c: cond}
	}
	switch cond := cond.(type) {
	case algebra.And:
		return cand{l: c.compileCond(cond.L), r: c.compileCond(cond.R)}
	case algebra.Or:
		return cor{l: c.compileCond(cond.L), r: c.compileCond(cond.R)}
	case algebra.Not:
		return cnot{c: c.compileCond(cond.C)}
	case algebra.InSub:
		return cin{cols: cond.Cols, sub: c.subFor(cond.Sub), str: cond.String()}
	}
	panic(fmt.Sprintf("plan: compileCond: unexpected condition %T", cond))
}

func (c catomic) eval(x *exec, t value.Tuple) logic.TV {
	return algebra.EvalCond(c.c, t, x.mode)
}
func (c cand) eval(x *exec, t value.Tuple) logic.TV {
	return logic.And(c.l.eval(x, t), c.r.eval(x, t))
}
func (c cor) eval(x *exec, t value.Tuple) logic.TV {
	return logic.Or(c.l.eval(x, t), c.r.eval(x, t))
}
func (c cnot) eval(x *exec, t value.Tuple) logic.TV {
	return logic.Not(c.c.eval(x, t))
}

// eachSub calls f on the subplan of every IN atom in c.
func eachSub(c pcond, f func(sub *Plan)) {
	switch c := c.(type) {
	case cand:
		eachSub(c.l, f)
		eachSub(c.r, f)
	case cor:
		eachSub(c.l, f)
		eachSub(c.r, f)
	case cnot:
		eachSub(c.c, f)
	case cin:
		f(c.sub)
	}
}

// eval mirrors the reference interpreter's evalIn over the subquery result
// in (frozen, Δ) form: under naive evaluation one set-membership probe;
// under SQL's three-valued semantics a null-free probe is answered by one
// membership probe (only a null-free row can equal it) plus a scan of the
// rows with nulls — which are Δ rows, the frozen part being null-free.
func (c cin) eval(x *exec, t value.Tuple) logic.TV {
	probe := t.Project(c.cols)
	s := x.subSide(c.sub)
	if x.mode == algebra.ModeNaive {
		return logic.FromBool(s.contains(probe))
	}
	res := logic.F
	fold := func(row value.Tuple) bool {
		res = logic.Or(res, algebra.TupleEq(probe, row, x.mode))
		return res != logic.T
	}
	if !probe.HasNull() {
		if s.contains(probe) {
			return logic.T
		}
		s.eachWithNulls(fold)
		return res
	}
	// A probe with nulls can match no row with t in SQL mode; fold for u
	// vs f over both parts (order-insensitive).
	s.eachWithNulls(fold)
	if res != logic.T {
		s.eachNullFree(fold)
	}
	return res
}
