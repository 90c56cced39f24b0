package core

import (
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/ctable"
	"incdb/internal/plan"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/value"
)

func exampleDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(db.FreshNull()))
	db.Add(s)
	return db
}

// The front-end tests below call the functions package incdb re-exports
// under the same names.
func TestEvaluationFrontends(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	if got := plan.Naive(db, q); got.Len() != 1 {
		t.Fatalf("Naive = %v", got)
	}
	if got := plan.SQL(db, q); got.Len() != 1 {
		t.Fatalf("SQL = %v (set difference is syntactic)", got)
	}
	if got := plan.EvalBag(db, q, algebra.ModeNaive); got.Mult(value.Consts("1")) != 1 {
		t.Fatalf("NaiveBag = %v", got)
	}
	if got := plan.EvalBag(db, q, algebra.ModeSQL); got.Mult(value.Consts("1")) != 1 {
		t.Fatalf("SQLBag = %v", got)
	}
}

func TestCertaintyFrontends(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	cert, err := certain.WithNulls(db, q, certain.Options{})
	if err != nil || cert.Len() != 0 {
		t.Fatalf("cert⊥ = %v, %v", cert, err)
	}
	inter, err := certain.Intersection(db, q, certain.Options{})
	if err != nil || inter.Len() != 0 {
		t.Fatalf("cert∩ = %v, %v", inter, err)
	}
}

func TestApproximationFrontends(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	plus, err := ApproxPlus(db, q)
	if err != nil || plus.Len() != 0 {
		t.Fatalf("Q+ = %v, %v", plus, err)
	}
	poss, err := ApproxPossible(db, q)
	if err != nil || !poss.Contains(value.Consts("1")) {
		t.Fatalf("Q? = %v, %v", poss, err)
	}
	qt, qf, err := ApproxTrueFalse(db, q)
	if err != nil || qt.Len() != 0 {
		t.Fatalf("Qt = %v, %v", qt, err)
	}
	if qf == nil {
		t.Fatalf("Qf missing")
	}
	// Unsupported fragment: errors, not panics.
	if _, err := ApproxPlus(db, algebra.DomK(1)); err == nil {
		t.Fatalf("Dom must be rejected")
	}
}

func TestCTableFrontend(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	cpart, ppart, err := CTableAnswers(db, q, ctable.Aware)
	if err != nil {
		t.Fatal(err)
	}
	if cpart.Len() != 0 || !ppart.Contains(value.Consts("1")) {
		t.Fatalf("ctable = %v / %v", cpart, ppart)
	}
}

func TestProbabilisticFrontends(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	act, err := prob.AlmostCertainlyTrue(db, q, value.Consts("1"))
	if err != nil || !act {
		t.Fatalf("1 should be almost certainly in R−S: %v %v", act, err)
	}
	mu, err := prob.Mu(db, q, constraint.Set{}, value.Consts("1"), certain.Options{})
	if err != nil || mu.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("µ = %v, %v", mu, err)
	}
}

func TestAnalyzeClassifiesErrors(t *testing.T) {
	// The tautology query: SQL misses the null tuple (false negative).
	db := relation.NewDatabase()
	p := relation.New("P", "oid")
	p.Add(value.Consts("o1"))
	p.Add(value.T(db.FreshNull()))
	db.Add(p)
	q := algebra.Sel(algebra.R("P"), algebra.COr(
		algebra.CEqC(0, value.Const("o2")),
		algebra.CNeqC(0, value.Const("o2")),
	))
	rep := Analyze(db, q, certain.Options{})
	if rep.CertainErr != nil {
		t.Fatal(rep.CertainErr)
	}
	if len(rep.FalseNegatives) != 1 {
		t.Fatalf("expected one false negative: %+v", rep)
	}
	if len(rep.FalsePositives) != 0 {
		t.Fatalf("no false positives expected: %+v", rep)
	}
	if rep.Plus == nil || rep.Poss == nil {
		t.Fatalf("approximations missing from report")
	}
	if rep.Query == "" {
		t.Fatalf("query rendering missing")
	}
}

func TestAnalyzeSurvivesOracleFailure(t *testing.T) {
	// Too many nulls: Analyze must degrade gracefully.
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b", "c", "d")
	for i := 0; i < 8; i++ {
		r.Add(value.T(db.FreshNull(), db.FreshNull(), db.FreshNull(), db.FreshNull()))
	}
	r.Add(value.Consts("a", "b", "c", "d"))
	db.Add(r)
	rep := Analyze(db, algebra.R("R"), certain.Options{MaxWorlds: 100})
	if rep.CertainErr == nil {
		t.Fatalf("expected oracle failure")
	}
	if rep.SQLAnswers == nil || rep.NaiveAnswers == nil {
		t.Fatalf("cheap evaluations must still be present")
	}
}

// TestREADMEProcedureTable: the README's procedures table is the rendering
// of Procs, so the documentation cannot drift from the rows the server and
// the CLI dispatch on.
func TestREADMEProcedureTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| Procedure | Result sets | Rewriting | Evaluation | Guarantee | Paper | `bag` | Served |\n|---|---|---|---|---|---|---|---|\n")
	yes := map[bool]string{true: "yes", false: "–"}
	for _, p := range Procs {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s | %s |\n", p.Name, strings.Join(p.Labels, ", "),
			p.Rewriting, p.Eval, p.Guarantee, p.Ref, yes[p.Bag], yes[p.Served])
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Fatalf("README.md's procedures table is not the rendering of core.Procs; want\n%s", b.String())
	}
}
