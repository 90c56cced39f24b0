// Package algebra implements the relational algebra of Section 2 of the
// paper over incomplete databases, together with the evaluation procedures
// the survey studies:
//
//   - naive evaluation (Section 4.1): nulls are treated as fresh constants
//     and the query is evaluated in the usual two-valued way;
//   - SQL evaluation (Sections 1 and 5.2): selection conditions are
//     evaluated in Kleene's three-valued logic and only condition value t
//     survives — the assertion-operator collapse of FO↑SQL;
//   - bag variants of both (Section 4.2), where multiplicities follow the
//     SQL standard (union adds, difference subtracts to zero, …).
//
// Besides σ, π, ×, ∪, −, ∩ the AST has division ÷ (the Pos∀G fragment of
// Theorem 4.4), the anti-semijoin by unifiability ⋉⇑ used by both
// approximation schemes of Figure 2, and the active-domain query Dom^k
// required by the Figure 2(a) translation.
package algebra

import (
	"fmt"
	"strings"
)

// Expr is a relational algebra expression. Expressions are immutable once
// built; the evaluator never mutates them.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Rel is a reference to a database relation by name.
type Rel struct{ Name string }

// Select is σ_Cond(In).
type Select struct {
	In   Expr
	Cond Cond
}

// Project is π_Cols(In); Cols are 0-based positions and may repeat.
type Project struct {
	In   Expr
	Cols []int
}

// Product is the Cartesian product L × R.
type Product struct{ L, R Expr }

// Union is L ∪ R (arities must match).
type Union struct{ L, R Expr }

// Diff is the difference L − R (arities must match).
type Diff struct{ L, R Expr }

// Intersect is L ∩ R (arities must match). It is primitive rather than
// derived because the Figure 2(a) translation uses it directly.
type Intersect struct{ L, R Expr }

// Divide is the relational division L ÷ R of Section 4.1: for L of arity
// n+m and R of arity m, the tuples ā of arity n such that (ā, b̄) ∈ L for
// every b̄ ∈ R. Division is what pushes Pos∀G beyond unions of conjunctive
// queries while keeping naive evaluation correct under cwa (Theorem 4.4).
type Divide struct{ L, R Expr }

// AntiUnify is the anti-semijoin by unifiability L ⋉⇑ R (Section 4.2): the
// tuples r̄ of L for which no s̄ ∈ R unifies with r̄. Arities must match.
type AntiUnify struct{ L, R Expr }

// Dom is the k-fold Cartesian power of the active domain query Dom used by
// the Figure 2(a) translation.
type Dom struct{ K int }

func (Rel) isExpr()       {}
func (Select) isExpr()    {}
func (Project) isExpr()   {}
func (Product) isExpr()   {}
func (Union) isExpr()     {}
func (Diff) isExpr()      {}
func (Intersect) isExpr() {}
func (Divide) isExpr()    {}
func (AntiUnify) isExpr() {}
func (Dom) isExpr()       {}

func (e Rel) String() string    { return e.Name }
func (e Select) String() string { return fmt.Sprintf("σ[%s](%s)", e.Cond, e.In) }
func (e Project) String() string {
	parts := make([]string, len(e.Cols))
	for i, c := range e.Cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(parts, ","), e.In)
}
func (e Product) String() string   { return fmt.Sprintf("(%s × %s)", e.L, e.R) }
func (e Union) String() string     { return fmt.Sprintf("(%s ∪ %s)", e.L, e.R) }
func (e Diff) String() string      { return fmt.Sprintf("(%s − %s)", e.L, e.R) }
func (e Intersect) String() string { return fmt.Sprintf("(%s ∩ %s)", e.L, e.R) }
func (e Divide) String() string    { return fmt.Sprintf("(%s ÷ %s)", e.L, e.R) }
func (e AntiUnify) String() string { return fmt.Sprintf("(%s ⋉⇑ %s)", e.L, e.R) }
func (e Dom) String() string       { return fmt.Sprintf("Dom^%d", e.K) }

// Catalog resolves relation names to arities; *relation.Database satisfies
// it.
type Catalog interface {
	Arity(name string) int
}

// Arity computes the output arity of e against the catalog. It panics on
// unknown relations or malformed expressions: those are construction bugs,
// not runtime conditions. Use Validate for user-supplied expressions.
func Arity(e Expr, cat Catalog) int {
	n, err := arity(e, cat)
	if err != nil {
		panic("algebra: " + err.Error())
	}
	return n
}

// Validate checks that e is well-formed against the catalog: all relation
// names resolve, arities of binary operators agree, projections and
// condition attributes are in range, and division shapes are sensible.
func Validate(e Expr, cat Catalog) error {
	_, err := arity(e, cat)
	return err
}

func arity(e Expr, cat Catalog) (int, error) {
	switch e := e.(type) {
	case Rel:
		n := cat.Arity(e.Name)
		if n < 0 {
			return 0, fmt.Errorf("unknown relation %q", e.Name)
		}
		return n, nil
	case Select:
		n, err := arity(e.In, cat)
		if err != nil {
			return 0, err
		}
		if err := validateCond(e.Cond, n, cat); err != nil {
			return 0, err
		}
		return n, nil
	case Project:
		n, err := arity(e.In, cat)
		if err != nil {
			return 0, err
		}
		for _, c := range e.Cols {
			if c < 0 || c >= n {
				return 0, fmt.Errorf("projection column %d out of range for arity %d", c, n)
			}
		}
		return len(e.Cols), nil
	case Product:
		l, err := arity(e.L, cat)
		if err != nil {
			return 0, err
		}
		r, err := arity(e.R, cat)
		if err != nil {
			return 0, err
		}
		return l + r, nil
	case Union, Diff, Intersect:
		var l, r Expr
		switch e := e.(type) {
		case Union:
			l, r = e.L, e.R
		case Diff:
			l, r = e.L, e.R
		case Intersect:
			l, r = e.L, e.R
		}
		ln, err := arity(l, cat)
		if err != nil {
			return 0, err
		}
		rn, err := arity(r, cat)
		if err != nil {
			return 0, err
		}
		if ln != rn {
			return 0, fmt.Errorf("arity mismatch %d vs %d in %s", ln, rn, e)
		}
		return ln, nil
	case Divide:
		ln, err := arity(e.L, cat)
		if err != nil {
			return 0, err
		}
		rn, err := arity(e.R, cat)
		if err != nil {
			return 0, err
		}
		if rn == 0 || rn >= ln {
			return 0, fmt.Errorf("division arities %d ÷ %d invalid", ln, rn)
		}
		return ln - rn, nil
	case AntiUnify:
		ln, err := arity(e.L, cat)
		if err != nil {
			return 0, err
		}
		rn, err := arity(e.R, cat)
		if err != nil {
			return 0, err
		}
		if ln != rn {
			return 0, fmt.Errorf("anti-semijoin arity mismatch %d vs %d", ln, rn)
		}
		return ln, nil
	case Dom:
		if e.K < 0 {
			return 0, fmt.Errorf("Dom^%d invalid", e.K)
		}
		return e.K, nil
	}
	return 0, fmt.Errorf("unknown expression %T", e)
}

// Convenience constructors keeping query definitions readable.

// Sel builds σ_c(in).
func Sel(in Expr, c Cond) Expr { return Select{In: in, Cond: c} }

// Proj builds π_cols(in).
func Proj(in Expr, cols ...int) Expr { return Project{In: in, Cols: cols} }

// Join builds σ_c(l × r); the condition sees l's columns first.
func Join(l, r Expr, c Cond) Expr { return Select{In: Product{L: l, R: r}, Cond: c} }
