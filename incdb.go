// Package incdb is a library for querying incomplete relational databases
// with correctness guarantees, reproducing the framework surveyed in
// Console, Guagliardo, Libkin and Toussaint, "Coping with Incomplete Data:
// Recent Advances" (PODS 2020).
//
// The library provides:
//
//   - a relational engine over constants and marked nulls, with set and
//     bag semantics, naive evaluation and SQL-style three-valued
//     evaluation (internal/algebra, internal/relation, internal/value);
//   - exact certain answers — cert⊥ and cert∩ — as a guarded exponential
//     oracle (internal/certain);
//   - the two polynomial approximation schemes of Figure 2, (Qᵗ, Qᶠ) and
//     (Q⁺, Q?) (internal/translate), and the four c-table evaluation
//     strategies of Greco et al. (internal/ctable);
//   - the probabilistic framework of Section 4.3: µᵏ, asymptotic µ, the
//     0–1 law, and conditional probabilities under FDs and INDs as exact
//     rationals (internal/prob, internal/constraint);
//   - the many-valued logics of Section 5: Kleene's L3v, the derived
//     six-valued L6v, the assertion operator, the FO semantics ⟦·⟧bool,
//     ⟦·⟧unif, ⟦·⟧nullfree, ⟦·⟧sql, and the Boolean-FO compilation of
//     Theorems 5.4/5.5 (internal/logic, internal/fo).
//
// This package is the public facade: it re-exports the types and
// operations that examples and downstream users need, so that a typical
// program imports only "incdb".
package incdb

import (
	"math/big"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/core"
	"incdb/internal/ctable"
	"incdb/internal/plan"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Data model.
type (
	// Database is an incomplete relational instance over Const ∪ Null.
	Database = relation.Database
	// Relation is a multiset of tuples of fixed arity.
	Relation = relation.Relation
	// Tuple is a row.
	Tuple = value.Tuple
	// Value is a constant or a marked null.
	Value = value.Value
	// Valuation maps nulls to constants.
	Valuation = value.Valuation
)

// Queries.
type (
	// Expr is a relational algebra expression.
	Expr = algebra.Expr
	// Cond is a selection condition.
	Cond = algebra.Cond
	// CertainOptions is the one options type of every procedure that
	// quantifies over valuations: the certainty oracles, Mu and MuK.
	// Workers sizes the pool of the oracles' and MuK's world loop (0 = one
	// per CPU, 1 = serial) and never changes a result; MaxWorlds bounds the
	// oracles' enumeration.
	CertainOptions = certain.Options
	// Strategy selects a c-table evaluation strategy.
	Strategy = ctable.Strategy
	// Constraints is a set of integrity constraints (FDs/INDs).
	Constraints = constraint.Set
	// FD is a functional dependency; IND an inclusion dependency.
	FD = constraint.FD
	// IND is an inclusion dependency.
	IND = constraint.IND
	// Report compares all evaluation procedures on one query.
	Report = core.Report
)

// The four c-table strategies of Theorem 4.9.
const (
	Eager     = ctable.Eager
	SemiEager = ctable.SemiEager
	Lazy      = ctable.Lazy
	Aware     = ctable.Aware
)

// Value constructors.
var (
	// Const builds a constant value.
	Const = value.Const
	// Int builds a numeric constant value.
	Int = value.Int
	// Null builds the marked null ⊥id.
	Null = value.Null
	// T builds a tuple.
	T = value.T
	// Consts builds a tuple of constants.
	Consts = value.Consts
)

// Database constructors.
var (
	// NewDatabase creates an empty incomplete database.
	NewDatabase = relation.NewDatabase
	// NewRelation creates an empty relation with named attributes.
	NewRelation = relation.New
	// Codd renumbers every null occurrence freshly (SQL's non-repeating
	// nulls).
	Codd = relation.Codd
)

// Query constructors (relational algebra).
var (
	// R references a database relation; Sel, Proj, Join, Times, Un,
	// Minus, Inter, Div build σ, π, ⋈, ×, ∪, −, ∩, ÷.
	R     = algebra.R
	Sel   = algebra.Sel
	Proj  = algebra.Proj
	Join  = algebra.Join
	Times = algebra.Times
	Un    = algebra.Un
	Minus = algebra.Minus
	Inter = algebra.Inter
	Div   = algebra.Div

	// Condition builders: =, ≠, <, >, const/null tests, ∧, ∨, ¬, IN.
	CEq       = algebra.CEq
	CEqC      = algebra.CEqC
	CNeq      = algebra.CNeq
	CNeqC     = algebra.CNeqC
	CLess     = algebra.CLess
	CLessC    = algebra.CLessC
	CGreaterC = algebra.CGreaterC
	CNull     = algebra.CNull
	CConst    = algebra.CConst
	CAnd      = algebra.CAnd
	COr       = algebra.COr
	CNot      = algebra.CNot
	CIn       = algebra.CIn
)

// Evaluation procedures.
var (
	// SQL is three-valued SQL evaluation; Naive treats nulls as fresh
	// constants.
	SQL   = plan.SQL
	Naive = plan.Naive

	// CertainWithNulls and CertainIntersection are the exact (guarded
	// exponential) certainty oracles.
	CertainWithNulls    = certain.WithNulls
	CertainIntersection = certain.Intersection

	// ApproxPlus/ApproxPossible evaluate the Figure 2(b) rewritings;
	// ApproxTrueFalse the Figure 2(a) ones.
	ApproxPlus      = core.ApproxPlus
	ApproxPossible  = core.ApproxPossible
	ApproxTrueFalse = core.ApproxTrueFalse

	// CTableAnswers evaluates via conditional tables under a strategy.
	CTableAnswers = core.CTableAnswers

	// AlmostCertainlyTrue, Mu and the finite-domain MuK are the
	// probabilistic answers of §4.3.
	AlmostCertainlyTrue = prob.AlmostCertainlyTrue
	Mu                  = prob.Mu
	MuK                 = prob.MuK

	// Analyze runs everything and classifies SQL's errors.
	Analyze = core.Analyze
)

// SQLBag and NaiveBag are the bag-semantics variants of SQL and Naive
// (Section 4.2).
func SQLBag(db *Database, q Expr) *Relation { return plan.EvalBag(db, q, algebra.ModeSQL) }

func NaiveBag(db *Database, q Expr) *Relation { return plan.EvalBag(db, q, algebra.ModeNaive) }

// Query planning. Evaluation is planned: SQL/Naive and every
// oracle run through internal/plan's compile-once physical plans (selection
// pushdown, n-ary multi-key hash joins, and per-world execution as
// frozen part ∪ Δ(valuation)). These re-exports expose the planner directly.
var (
	// Describe explains a query against a database: the optimized logical
	// expression and the compiled physical plan with every node's
	// (frozen, Δ) split across the possible worlds, optionally after one
	// traced execution (EXPLAIN ANALYZE). It is the JSON the incdbd
	// server's /v1/explain endpoint and incdbctl explain -format json emit;
	// ExplainInfo.Text renders it as text.
	Describe = plan.Describe

	// EvalMode evaluates a query in an explicit mode (ModeNaive/ModeSQL)
	// through the planner; Naive and SQL are the common shorthands.
	EvalMode = plan.Eval

	// NewPrepCache creates a version-guarded prepared-plan cache for
	// long-lived workloads (REPL/server): pass it via
	// CertainOptions.Prep so repeated oracle calls against an unchanged
	// database reuse the frozen parts across calls. When a relation the
	// plan reads has only gained rows, the entry is advanced across them
	// on its next lookup; any other mutation drops it. Lookups must be
	// excluded from mutations of the database (a reader/writer lock).
	NewPrepCache = plan.NewPrepCache
)

// PrepCache re-exports the version-guarded prepared-plan cache type, and
// ExplainInfo the structured EXPLAIN rendering.
type (
	PrepCache   = plan.PrepCache
	ExplainInfo = plan.ExplainInfo
)

// Evaluation modes for EvalMode and Describe.
const (
	ModeNaive = algebra.ModeNaive
	ModeSQL   = algebra.ModeSQL
)

// Mode selects naive or SQL-style condition evaluation.
type Mode = algebra.Mode

// MuRat is a convenience alias for the exact rational probabilities.
type MuRat = big.Rat
