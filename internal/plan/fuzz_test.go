package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/gen"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// FuzzPlannerMatchesInterp: for any query the raparse grammar accepts and
// any generated database, the planner's answer equals the reference
// interpreter's, under both evaluation modes and both semantics, one-shot and
// prepared; and a prepared Result's merge of its frozen part with its sorted
// Δ visits the tuples, multiplicities and order of its materialized relation.
// The seeds cover every raparse operator and condition. Run it with
//
//	go test -run='^$' -fuzz='^FuzzPlannerMatchesInterp$' -fuzztime=30s ./internal/plan
func FuzzPlannerMatchesInterp(f *testing.F) {
	for i, q := range []string{
		"R",
		"sel(and(eq(0, 1), isconst(1)), R)",
		"proj(1 0 1, sel(or(neq(0, 1), isnull(0)), T))",
		"proj(0 3, sel(and(eq(1, 2), lt(0, 3)), times(R, T)))",
		"union(R, proj(1 0, T))",
		"minus(proj(0, R), S)",
		"inter(R, T)",
		"div(R, S)",
		"sel(or(eqc(0, c1), gtc(1, c2)), R)",
		"sel(not(and(ltc(0, c3), neqc(1, c0))), T)",
		"sel(in(0, sel(in(0, S), proj(1, T))), R)",
		"sel(not(in(1 0, T)), R)",
		"sel(and(true, not(false)), minus(dom(1), S))",
		"proj(0, sel(eq(1, 2), times(R, dom(1))))",
	} {
		f.Add(q, int64(i))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		if len(text) > 256 {
			t.Skip("query text too long")
		}
		q, err := raparse.ParseQuery(text)
		if err != nil {
			t.Skip("does not parse")
		}
		db := gen.DB(rand.New(rand.NewSource(seed)), gen.DefaultConfig())
		if algebra.Validate(q, db) != nil {
			t.Skip("invalid against the schema")
		}
		if productBound(q, db) > 4096 {
			t.Skip("inputs too large")
		}
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			if want, got := algebra.EvalInterp(db, q, mode), Eval(db, q, mode); !want.Equal(got) {
				t.Fatalf("%s, %s, set: planner %v, interpreter %v", q, mode, got, want)
			}
			if want, got := algebra.EvalBagInterp(db, q, mode), EvalBag(db, q, mode); !want.Equal(got) {
				t.Fatalf("%s, %s, bag: planner %v, interpreter %v", q, mode, got, want)
			}
			for _, bag := range []bool{false, true} {
				res := PlanFor(q, db, mode, bag).Prepare(db).Result(db, nil)
				rel := res.Relation()
				want := algebra.EvalInterp(db, q, mode)
				if bag {
					want = algebra.EvalBagInterp(db, q, mode)
				}
				if !want.Equal(rel) {
					t.Fatalf("%s, %s, bag=%t: prepared %v, interpreter %v", q, mode, bag, rel, want)
				}
				if merged, each := rowsOf(res.Each), rowsOf(rel.Each); merged != each {
					t.Fatalf("%s, %s, bag=%t: Result.Each %s, Relation().Each %s", q, mode, bag, merged, each)
				}
			}
		}
	})
}

// rowsOf renders what an Each visits, in order, with multiplicities.
func rowsOf(each func(func(value.Tuple, int))) string {
	var b strings.Builder
	each(func(t value.Tuple, m int) { fmt.Fprintf(&b, "%v×%d ", t, m) })
	return b.String()
}

// productBound is the product of the sizes of q's leaves, counted with
// multiplicity: a bound on the largest cross product an evaluation of q
// can build (the bag size of a relation, |adom|^k for Dom^k).
func productBound(q algebra.Expr, db *relation.Database) float64 {
	adom := float64(len(db.Consts()) + len(db.NullIDs()))
	bound := 1.0
	algebra.Walk(q, func(e algebra.Expr) bool {
		switch e := e.(type) {
		case algebra.Rel:
			bound *= math.Max(1, float64(db.Relation(e.Name).Size()))
		case algebra.Dom:
			bound *= math.Pow(math.Max(1, adom), float64(e.K))
		}
		return true
	}, nil)
	return bound
}
