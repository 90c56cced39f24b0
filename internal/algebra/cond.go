package algebra

import (
	"fmt"
	"strings"

	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Cond is a selection condition following the grammar of Section 2:
//
//	θ ::= const(A) | null(A) | A = B | A = c | A ≠ B | A ≠ c | θ∨θ | θ∧θ
//
// extended, as discussed in Section 6 ("Types of attributes"), with ordered
// comparisons < and ≤ that are treated like disequalities by the θ*
// translation, and with IN-subquery atoms so that the SQL examples of the
// introduction can be expressed faithfully. Explicit negation Not is
// supported by the evaluator; the paper-level negation that pushes ¬
// through the grammar is Negate.
type Cond interface {
	fmt.Stringer
	isCond()
}

// Eq is A_I = A_J.
type Eq struct{ I, J int }

// EqConst is A_I = c.
type EqConst struct {
	I int
	C value.Value
}

// Neq is A_I ≠ A_J.
type Neq struct{ I, J int }

// NeqConst is A_I ≠ c.
type NeqConst struct {
	I int
	C value.Value
}

// Less is A_I < A_J under the deterministic value order (numeric constants
// numerically, others lexicographically).
type Less struct{ I, J int }

// LessConst is A_I < c.
type LessConst struct {
	I int
	C value.Value
}

// GreaterConst is A_I > c.
type GreaterConst struct {
	I int
	C value.Value
}

// IsNull is the null(A_I) test.
type IsNull struct{ I int }

// IsConst is the const(A_I) test.
type IsConst struct{ I int }

// And is θ ∧ θ.
type And struct{ L, R Cond }

// Or is θ ∨ θ.
type Or struct{ L, R Cond }

// Not is explicit negation, evaluated through the logic's ¬.
type Not struct{ C Cond }

// InSub is the (t[Cols[0]], …, t[Cols[k-1]]) IN Sub test, with SQL's
// three-valued IN semantics under ModeSQL: t if some row matches, u if no
// row matches but some comparison is unknown, f otherwise.
type InSub struct {
	Cols []int
	Sub  Expr
}

// True and False are the constant conditions.
type True struct{}
type False struct{}

// boundIn is an InSub whose subquery has been resolved against the current
// evaluation environment (bindCond): sub is the set-semantics subquery
// result and split its null-free/with-nulls partition (ModeSQL only). It is
// created per evaluation and never appears in user-built conditions.
type boundIn struct {
	orig  InSub
	sub   *relation.Relation
	split *inSplit
}

func (boundIn) isCond()          {}
func (c boundIn) String() string { return c.orig.String() }

func (Eq) isCond()           {}
func (EqConst) isCond()      {}
func (Neq) isCond()          {}
func (NeqConst) isCond()     {}
func (Less) isCond()         {}
func (LessConst) isCond()    {}
func (GreaterConst) isCond() {}
func (IsNull) isCond()       {}
func (IsConst) isCond()      {}
func (And) isCond()          {}
func (Or) isCond()           {}
func (Not) isCond()          {}
func (InSub) isCond()        {}
func (True) isCond()         {}
func (False) isCond()        {}

func (c Eq) String() string           { return fmt.Sprintf("#%d=#%d", c.I, c.J) }
func (c EqConst) String() string      { return fmt.Sprintf("#%d=%s", c.I, c.C) }
func (c Neq) String() string          { return fmt.Sprintf("#%d≠#%d", c.I, c.J) }
func (c NeqConst) String() string     { return fmt.Sprintf("#%d≠%s", c.I, c.C) }
func (c Less) String() string         { return fmt.Sprintf("#%d<#%d", c.I, c.J) }
func (c LessConst) String() string    { return fmt.Sprintf("#%d<%s", c.I, c.C) }
func (c GreaterConst) String() string { return fmt.Sprintf("#%d>%s", c.I, c.C) }
func (c IsNull) String() string       { return fmt.Sprintf("null(#%d)", c.I) }
func (c IsConst) String() string      { return fmt.Sprintf("const(#%d)", c.I) }
func (c And) String() string          { return fmt.Sprintf("(%s ∧ %s)", c.L, c.R) }
func (c Or) String() string           { return fmt.Sprintf("(%s ∨ %s)", c.L, c.R) }
func (c Not) String() string          { return fmt.Sprintf("¬(%s)", c.C) }
func (c InSub) String() string {
	parts := make([]string, len(c.Cols))
	for i, x := range c.Cols {
		parts[i] = fmt.Sprintf("#%d", x)
	}
	return fmt.Sprintf("(%s) IN (%s)", strings.Join(parts, ","), c.Sub)
}
func (True) String() string  { return "true" }
func (False) String() string { return "false" }

func validateCond(c Cond, width int, cat Catalog) error {
	check := func(is ...int) error {
		for _, i := range is {
			if i < 0 || i >= width {
				return fmt.Errorf("condition attribute #%d out of range for arity %d", i, width)
			}
		}
		return nil
	}
	switch c := c.(type) {
	case Eq:
		return check(c.I, c.J)
	case EqConst:
		if c.C.IsNull() {
			return fmt.Errorf("condition constant must not be a null")
		}
		return check(c.I)
	case Neq:
		return check(c.I, c.J)
	case NeqConst:
		if c.C.IsNull() {
			return fmt.Errorf("condition constant must not be a null")
		}
		return check(c.I)
	case Less:
		return check(c.I, c.J)
	case LessConst:
		return check(c.I)
	case GreaterConst:
		return check(c.I)
	case IsNull:
		return check(c.I)
	case IsConst:
		return check(c.I)
	case And:
		if err := validateCond(c.L, width, cat); err != nil {
			return err
		}
		return validateCond(c.R, width, cat)
	case Or:
		if err := validateCond(c.L, width, cat); err != nil {
			return err
		}
		return validateCond(c.R, width, cat)
	case Not:
		return validateCond(c.C, width, cat)
	case InSub:
		if err := check(c.Cols...); err != nil {
			return err
		}
		n, err := arity(c.Sub, cat)
		if err != nil {
			return err
		}
		if n != len(c.Cols) {
			return fmt.Errorf("IN subquery arity %d vs %d columns", n, len(c.Cols))
		}
		return nil
	case True, False:
		return nil
	}
	return fmt.Errorf("unknown condition %T", c)
}

// Negate pushes negation through a condition following the paper's rules:
// = and ≠ are interchanged, const and null are interchanged, and De Morgan
// is applied to ∧/∨. Ordered comparisons negate into their complements
// (¬(A<B) = B<A ∨ A=B). Conditions our grammar cannot invert positively
// (IN subqueries) are wrapped in Not.
func Negate(c Cond) Cond {
	switch c := c.(type) {
	case Eq:
		return Neq{c.I, c.J}
	case Neq:
		return Eq{c.I, c.J}
	case EqConst:
		return NeqConst{c.I, c.C}
	case NeqConst:
		return EqConst{c.I, c.C}
	case Less:
		return Or{Less{c.J, c.I}, Eq{c.I, c.J}}
	case LessConst:
		return Or{GreaterConst{c.I, c.C}, EqConst{c.I, c.C}}
	case GreaterConst:
		return Or{LessConst{c.I, c.C}, EqConst{c.I, c.C}}
	case IsNull:
		return IsConst{c.I}
	case IsConst:
		return IsNull{c.I}
	case And:
		return Or{Negate(c.L), Negate(c.R)}
	case Or:
		return And{Negate(c.L), Negate(c.R)}
	case Not:
		return c.C
	case True:
		return False{}
	case False:
		return True{}
	case InSub:
		return Not{c}
	}
	panic(fmt.Sprintf("algebra: Negate: unknown condition %T", c))
}

// Star is the θ ↦ θ* translation used by both Figure 2 schemes: every
// comparison of the form A ≠ x is strengthened with const(A) (and const(x)
// when x is an attribute), so that under naive evaluation the condition
// holds only when it holds certainly. Ordered comparisons are guarded the
// same way, per the Section 6 discussion of typed attributes. Equality
// atoms are left alone: naive evaluation already makes them hold only when
// certain (⊥ᵢ = ⊥ᵢ holds in every possible world, ⊥ᵢ = c in none… of the
// naive matches).
func Star(c Cond) Cond {
	switch c := c.(type) {
	case Eq, EqConst, IsNull, IsConst, True, False:
		return c
	case Neq:
		return And{And{c, IsConst{c.I}}, IsConst{c.J}}
	case NeqConst:
		return And{c, IsConst{c.I}}
	case Less:
		return And{And{c, IsConst{c.I}}, IsConst{c.J}}
	case LessConst:
		return And{c, IsConst{c.I}}
	case GreaterConst:
		return And{c, IsConst{c.I}}
	case And:
		return And{Star(c.L), Star(c.R)}
	case Or:
		return Or{Star(c.L), Star(c.R)}
	case Not:
		// Push the negation first, then translate the positive form.
		return Star(Negate(c.C))
	}
	panic(fmt.Sprintf("algebra: Star: unsupported condition %T (IN subqueries are outside the Figure 2 fragment)", c))
}

// evalCond evaluates a condition on a tuple. Under ModeNaive the result is
// two-valued (T or F) with nulls acting as fresh constants — identical
// marked nulls are equal, everything else involving a null is distinct and
// unordered. Under ModeSQL comparisons touching nulls yield U and the
// connectives are Kleene's. env carries evaluated IN-subqueries.
func evalCond(c Cond, t value.Tuple, mode Mode, env *evalEnv) logic.TV {
	switch c := c.(type) {
	case True:
		return logic.T
	case False:
		return logic.F
	case Eq:
		return evalEq(t[c.I], t[c.J], mode)
	case EqConst:
		return evalEq(t[c.I], c.C, mode)
	case Neq:
		return logic.Not(evalEq(t[c.I], t[c.J], mode))
	case NeqConst:
		return logic.Not(evalEq(t[c.I], c.C, mode))
	case Less:
		return evalLess(t[c.I], t[c.J], mode)
	case LessConst:
		return evalLess(t[c.I], c.C, mode)
	case GreaterConst:
		return evalLess(c.C, t[c.I], mode)
	case IsNull:
		return logic.FromBool(t[c.I].IsNull())
	case IsConst:
		return logic.FromBool(t[c.I].IsConst())
	case And:
		return logic.And(evalCond(c.L, t, mode, env), evalCond(c.R, t, mode, env))
	case Or:
		return logic.Or(evalCond(c.L, t, mode, env), evalCond(c.R, t, mode, env))
	case Not:
		return logic.Not(evalCond(c.C, t, mode, env))
	case InSub:
		// Unbound fallback: resolve through the env caches on the spot.
		// The hot paths bind conditions first (bindCond), so this is only
		// reached for conditions evaluated outside a selection loop.
		b := boundIn{orig: c, sub: env.subResult(c.Sub)}
		if mode == ModeSQL {
			b.split = env.inSplitOf(c.Sub)
		}
		return evalIn(b, t, mode)
	case boundIn:
		return evalIn(c, t, mode)
	}
	panic(fmt.Sprintf("algebra: evalCond: unknown condition %T", c))
}

// EvalCond evaluates an IN-free condition on a tuple: the one definition of
// the atoms' two- and three-valued semantics, shared by the interpreter and
// the planner. An IN atom panics here; the planner compiles those itself.
func EvalCond(c Cond, t value.Tuple, mode Mode) logic.TV {
	return evalCond(c, t, mode, nil)
}

// evalEq compares two values. ModeNaive: syntactic equality (marked nulls
// equal themselves). ModeSQL: SQL comparison semantics — any null makes the
// comparison unknown, even ⊥ᵢ = ⊥ᵢ, because SQL's NULL carries no identity
// (this is the null-free semantics (14) applied to Eq).
func evalEq(a, b value.Value, mode Mode) logic.TV {
	if mode == ModeSQL && (a.IsNull() || b.IsNull()) {
		return logic.U
	}
	return logic.FromBool(a == b)
}

// evalLess compares under the deterministic value order. ModeSQL: nulls
// make the comparison unknown. ModeNaive stays two-valued: nulls take their
// position in the deterministic total order (after all constants), which
// keeps ¬ a complement; the θ* guards add const() tests wherever order on
// nulls would be unsound for the Figure 2 translations.
func evalLess(a, b value.Value, mode Mode) logic.TV {
	if mode == ModeSQL && (a.IsNull() || b.IsNull()) {
		return logic.U
	}
	return logic.FromBool(value.Less(a, b))
}

func evalIn(c boundIn, t value.Tuple, mode Mode) logic.TV {
	probe := t.Project(c.orig.Cols)
	if mode == ModeNaive {
		return logic.FromBool(c.sub.Contains(probe))
	}
	if !probe.HasNull() {
		// Three-valued IN with a null-free probe: a null-free subquery row
		// compares to t iff it is tuple-equal — one hash lookup — and to f
		// otherwise, so only the rows containing nulls can contribute u.
		if c.split.nullFree.Contains(probe) {
			return logic.T
		}
		res := logic.F
		for _, row := range c.split.withNulls {
			res = logic.Or(res, TupleEq(probe, row, mode))
		}
		return res
	}
	// A probe with nulls can match no row with t; scan for u vs f.
	res := logic.F
	for _, row := range c.sub.Tuples() {
		res = logic.Or(res, TupleEq(probe, row, mode))
		if res == logic.T {
			return logic.T
		}
	}
	return res
}

// TupleEq folds evalEq over the components in the evaluation logic: the
// comparison behind three-valued IN.
func TupleEq(a, b value.Tuple, mode Mode) logic.TV {
	eq := logic.T
	for i := range a {
		eq = logic.And(eq, evalEq(a[i], b[i], mode))
	}
	return eq
}
