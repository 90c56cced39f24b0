// Package core ties together the evaluation procedures the paper studies —
// SQL's three-valued evaluation, naive evaluation, the exact certain-answer
// notions of Section 3 and the tractable approximations of Section 4
// (Figure 2 rewritings and c-table strategies) — as rows of one table
// (Procs, procs.go): name, result-set labels, the rewriting and mode the
// planner executes, capabilities. Run executes a row — through a
// prepared-plan cache when given one, one-shot otherwise — and the incdbd
// server, the incdbctl modes, the Approx front-ends and Analyze all go
// through it. The procedures that are a single function of another package
// (cert⊥ and cert∩ in internal/certain, µ in internal/prob, SQL and naive
// evaluation in internal/algebra) are re-exported by package incdb
// directly, not wrapped here.
package core

import (
	"fmt"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/ctable"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

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
// possible parts. The evaluation is polynomial and runs on the calling
// goroutine.
func CTableAnswers(db *relation.Database, q algebra.Expr, s ctable.Strategy) (certainPart, possiblePart *relation.Relation, err error) {
	ct, err := ctable.Eval(db, q, s)
	if err != nil {
		return nil, nil, err
	}
	return ct.Extract(true), ct.Extract(false), nil
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
		SQLAnswers:   plan.SQL(db, q),
		NaiveAnswers: plan.Naive(db, q),
	}
	if plus, err := ApproxPlus(db, q); err == nil {
		r.Plus = plus
	}
	if poss, err := ApproxPossible(db, q); err == nil {
		r.Poss = poss
	}
	cert, err := certain.WithNulls(db, q, opts)
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
