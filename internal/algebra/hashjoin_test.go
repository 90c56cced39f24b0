package algebra

import (
	"fmt"
	"testing"

	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// referenceSelProduct is the textbook nested-loop σ_cond(L × R): the
// semantics the hash path must reproduce exactly, in both modes and under
// both set and bag multiplicities.
func referenceSelProduct(db *relation.Database, sel Select, prod Product, mode Mode, bag bool) *relation.Relation {
	env := newEvalEnv(db, mode, bag)
	l, r := eval(prod.L, env), eval(prod.R, env)
	out := relation.NewArity("ref", l.Arity()+r.Arity())
	l.Each(func(lt value.Tuple, lm int) {
		r.Each(func(rt value.Tuple, rm int) {
			joined := lt.Concat(rt)
			if evalCond(sel.Cond, joined, mode, env) == logic.T {
				out.AddMult(joined, multOf(lm*rm, env))
			}
		})
	})
	return out
}

func joinDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	for i := 0; i < 25; i++ {
		r.Add(value.Consts(fmt.Sprintf("k%d", i%9), fmt.Sprintf("v%d", i)))
	}
	r.Add(value.T(value.Null(1), value.Const("vx")))
	r.Add(value.T(value.Null(2), value.Const("vy")))
	r.AddMult(value.Consts("k1", "dup"), 3)
	db.Add(r)
	s := relation.New("S", "c", "d")
	for i := 0; i < 25; i++ {
		s.Add(value.Consts(fmt.Sprintf("k%d", i%7), fmt.Sprintf("w%d", i)))
	}
	s.Add(value.T(value.Null(1), value.Const("wx"))) // same marked null as R
	s.Add(value.T(value.Null(3), value.Const("wz")))
	s.AddMult(value.Consts("k1", "dupS"), 2)
	db.Add(s)
	return db
}

// TestHashJoinMatchesNestedLoop compares the index-backed equi-join against
// the nested-loop reference on instances with repeated keys, shared marked
// nulls, and bag multiplicities.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	db := joinDB()
	conds := []Cond{
		Eq{I: 0, J: 2},
		And{L: Eq{I: 0, J: 2}, R: NeqConst{I: 1, C: value.Const("dup")}},
		And{L: Eq{I: 2, J: 0}, R: Less{I: 1, J: 3}}, // reversed columns + extra conjunct
	}
	for ci, cond := range conds {
		sel := Select{In: Product{L: Rel{Name: "R"}, R: Rel{Name: "S"}}, Cond: cond}
		prod := sel.In.(Product)
		for _, mode := range []Mode{ModeNaive, ModeSQL} {
			for _, bag := range []bool{false, true} {
				var got *relation.Relation
				if bag {
					got = EvalBagInterp(db, sel, mode)
				} else {
					got = EvalInterp(db, sel, mode)
				}
				want := referenceSelProduct(db, sel, prod, mode, bag)
				if !got.Equal(want) {
					t.Errorf("cond %d mode %v bag %v:\nhash %s\nref  %s", ci, mode, bag, got, want)
				}
			}
		}
	}
}

// TestThreeValuedInHashPath pins the split-probe IN semantics: T via the
// null-free hash hit, U via subquery nulls, F when nothing can match, and
// the null-probe scan path.
func TestThreeValuedInHashPath(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("hit"))
	r.Add(value.Consts("miss"))
	r.Add(value.T(value.Null(9)))
	db.Add(r)
	s := relation.New("S", "x")
	s.Add(value.Consts("hit"))
	s.Add(value.T(value.Null(1)))
	db.Add(s)

	q := Sel(Rel{Name: "R"}, InSub{Cols: []int{0}, Sub: Rel{Name: "S"}})
	got := EvalInterp(db, q, ModeSQL)
	// SQL keeps only t rows: "hit" matches the null-free part; "miss" is
	// unknown (the subquery null); the null probe is unknown.
	if got.Len() != 1 || !got.Contains(value.Consts("hit")) {
		t.Errorf("IN under SQL = %s, want {hit}", got)
	}

	// NOT IN flips t and f: with a null in S nothing is certainly absent.
	qn := Sel(Rel{Name: "R"}, Not{C: InSub{Cols: []int{0}, Sub: Rel{Name: "S"}}})
	if got := EvalInterp(db, qn, ModeSQL); got.Len() != 0 {
		t.Errorf("NOT IN under SQL = %s, want ∅", got)
	}

	// Without the subquery null, "miss" is certainly absent.
	db2 := relation.NewDatabase()
	r2 := relation.New("R", "a")
	r2.Add(value.Consts("hit"))
	r2.Add(value.Consts("miss"))
	db2.Add(r2)
	s2 := relation.New("S", "x")
	s2.Add(value.Consts("hit"))
	db2.Add(s2)
	if got := EvalInterp(db2, qn, ModeSQL); got.Len() != 1 || !got.Contains(value.Consts("miss")) {
		t.Errorf("NOT IN without nulls = %s, want {miss}", got)
	}

	// Naive mode: marked nulls are fresh constants, ⊥9 ∉ S.
	if got := EvalInterp(db, q, ModeNaive); got.Len() != 1 || !got.Contains(value.Consts("hit")) {
		t.Errorf("IN under naive = %s, want {hit}", got)
	}
}
