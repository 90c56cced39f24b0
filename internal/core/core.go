// Package core is the headline API of the library: one place that ties
// together the evaluation procedures the paper studies — SQL's
// three-valued evaluation, naive evaluation, the exact certain-answer
// notions of Section 3, the tractable approximations of Section 4
// (Figure 2 rewritings and c-table strategies), and the probabilistic
// answers of Section 4.3 — over a single incomplete database and query.
//
// The procedures that answer a query with relations are rows of one table
// (Procs, procs.go): name, result-set labels, the rewriting and mode the
// planner executes, capabilities. Run executes a row — through a
// prepared-plan cache when given one, one-shot otherwise — and the incdbd
// server, the incdbctl modes and the front-ends below all go through it.
package core

import (
	"fmt"
	"math/big"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/ctable"
	"incdb/internal/engine"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// SQL evaluates the query the way a SQL engine does: Kleene's three-valued
// logic in conditions, keep only t (Sections 1 and 5.2). Fast (AC0 data
// complexity), but may return false positives and miss certain answers.
func SQL(db *relation.Database, q algebra.Expr) *relation.Relation {
	return algebra.SQL(db, q)
}

// Naive evaluates the query with nulls as fresh constants (Section 4.1).
// For unions of conjunctive queries (owa) and Pos∀G queries (cwa) this
// computes exactly the certain answers with nulls (Theorem 4.4).
func Naive(db *relation.Database, q algebra.Expr) *relation.Relation {
	return algebra.Naive(db, q)
}

// SQLBag and NaiveBag are the bag-semantics variants (Section 4.2).
func SQLBag(db *relation.Database, q algebra.Expr) *relation.Relation {
	return algebra.EvalBag(db, q, algebra.ModeSQL)
}

func NaiveBag(db *relation.Database, q algebra.Expr) *relation.Relation {
	return algebra.EvalBag(db, q, algebra.ModeNaive)
}

// CertainWithNulls computes cert⊥(Q, D) exactly (Definition 3.9) by
// enumerating the valuation space; exponential in |Null(D)| and therefore
// guarded by opts.MaxWorlds.
func CertainWithNulls(db *relation.Database, q algebra.Expr, opts certain.Options) (*relation.Relation, error) {
	return certain.WithNulls(db, q, opts)
}

// CertainIntersection computes cert∩(Q, D) exactly (Definition 3.7).
func CertainIntersection(db *relation.Database, q algebra.Expr, opts certain.Options) (*relation.Relation, error) {
	return certain.Intersection(db, q, opts)
}

// ApproxPlus evaluates the Q⁺ rewriting of Figure 2(b): a tractable subset
// of the certain answers (Theorem 4.7), equal to Q(D) on complete data.
func ApproxPlus(db *relation.Database, q algebra.Expr) (*relation.Relation, error) {
	return oneShot("plus", db, q)
}

// ApproxPossible evaluates the Q? rewriting of Figure 2(b): a tractable
// superset of the possible answers.
func ApproxPossible(db *relation.Database, q algebra.Expr) (*relation.Relation, error) {
	return oneShot("poss", db, q)
}

// ApproxTrueFalse evaluates the (Qᵗ, Qᶠ) rewriting of Figure 2(a):
// certainly-true and certainly-false answers (Theorem 4.6). Beware the
// active-domain products in Qᶠ — correct but infeasible beyond toy sizes,
// which is the point the survey makes about this scheme.
func ApproxTrueFalse(db *relation.Database, q algebra.Expr) (qt, qf *relation.Relation, err error) {
	if qt, err = oneShot("qt", db, q); err == nil {
		qf, err = oneShot("qf", db, q)
	}
	return qt, qf, err
}

// CTableAnswers evaluates the query over conditional tables with one of
// the four strategies of [36] (Theorem 4.9), returning the certain and
// possible parts.
func CTableAnswers(db *relation.Database, q algebra.Expr, s ctable.Strategy) (certainPart, possiblePart *relation.Relation, err error) {
	return CTableAnswersWith(db, q, s, engine.Options{})
}

// CTableAnswersWith is CTableAnswers with an explicit worker pool for the
// per-row condition construction and grounding.
func CTableAnswersWith(db *relation.Database, q algebra.Expr, s ctable.Strategy, eng engine.Options) (certainPart, possiblePart *relation.Relation, err error) {
	ct, err := ctable.EvalWith(db, q, s, eng)
	if err != nil {
		return nil, nil, err
	}
	return ct.Extract(true), ct.Extract(false), nil
}

// AlmostCertainlyTrue reports whether µ(Q, D, ā) = 1 (Theorem 4.10).
func AlmostCertainlyTrue(db *relation.Database, q algebra.Expr, t value.Tuple) (bool, error) {
	return prob.AlmostCertainlyTrue(db, q, t)
}

// Mu computes the asymptotic probability µ(Q|Σ, D, ā) as an exact
// rational; pass nil Σ for the unconditional µ (Theorems 4.10/4.11).
func Mu(db *relation.Database, q algebra.Expr, sigma constraint.Set, t value.Tuple) (*big.Rat, error) {
	return prob.Mu(db, q, sigma, t)
}

// MuWith is Mu with an explicit worker pool sharding the pattern
// enumeration.
func MuWith(db *relation.Database, q algebra.Expr, sigma constraint.Set, t value.Tuple, eng engine.Options) (*big.Rat, error) {
	return prob.MuWith(db, q, sigma, t, eng)
}

// MuK computes the finite-domain µᵏ with an explicit worker pool sharding
// the kⁿ valuation enumeration.
func MuK(db *relation.Database, q algebra.Expr, sigma constraint.Set, t value.Tuple, k int, eng engine.Options) (*big.Rat, error) {
	return prob.MuKWith(db, q, sigma, t, k, eng)
}

// Report compares the evaluation procedures on one query, classifying
// SQL's errors against the exact certain answers when the oracle is
// feasible.
type Report struct {
	Query string
	// SQLAnswers and NaiveAnswers always exist.
	SQLAnswers   *relation.Relation
	NaiveAnswers *relation.Relation
	// Plus ⊆ cert⊥ ⊆ … ⊆ Poss when the translation applies.
	Plus *relation.Relation
	Poss *relation.Relation
	// Certain is nil when the oracle was infeasible or the fragment
	// unsupported; CertainErr then says why.
	Certain    *relation.Relation
	CertainErr error
	// SQL errors relative to cert⊥ (Section 1's false positives/negatives).
	FalsePositives []value.Tuple
	FalseNegatives []value.Tuple
}

// Analyze runs every procedure on the query and classifies SQL's output.
func Analyze(db *relation.Database, q algebra.Expr, opts certain.Options) *Report {
	r := &Report{
		Query:        fmt.Sprint(q),
		SQLAnswers:   SQL(db, q),
		NaiveAnswers: Naive(db, q),
	}
	if plus, err := ApproxPlus(db, q); err == nil {
		r.Plus = plus
	}
	if poss, err := ApproxPossible(db, q); err == nil {
		r.Poss = poss
	}
	cert, err := CertainWithNulls(db, q, opts)
	if err != nil {
		r.CertainErr = err
		return r
	}
	r.Certain = cert
	r.SQLAnswers.Each(func(t value.Tuple, _ int) {
		if !cert.Contains(t) {
			r.FalsePositives = append(r.FalsePositives, t)
		}
	})
	cert.Each(func(t value.Tuple, _ int) {
		if !r.SQLAnswers.Contains(t) {
			r.FalseNegatives = append(r.FalseNegatives, t)
		}
	})
	return r
}
