package algebra

import (
	"strings"
	"testing"

	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

func c(s string) value.Value  { return value.Const(s) }
func n(id uint64) value.Value { return value.Null(id) }

func db1() *relation.Database {
	d := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(c("1"), c("2")))
	r.Add(value.T(c("1"), n(1)))
	r.Add(value.T(n(2), n(2)))
	d.Add(r)
	s := relation.New("S", "x")
	s.Add(value.T(c("1")))
	s.Add(value.T(n(1)))
	d.Add(s)
	return d
}

func TestArityAndValidate(t *testing.T) {
	d := db1()
	cases := []struct {
		e    Expr
		want int
	}{
		{Rel{"R"}, 2},
		{Proj(Rel{"R"}, 0), 1},
		{Product{Rel{"R"}, Rel{"S"}}, 3},
		{Union{Rel{"S"}, Proj(Rel{"R"}, 1)}, 1},
		{Diff{Rel{"S"}, Rel{"S"}}, 1},
		{Intersect{Rel{"S"}, Rel{"S"}}, 1},
		{Divide{Rel{"R"}, Rel{"S"}}, 1},
		{AntiUnify{Rel{"S"}, Rel{"S"}}, 1},
		{Dom{3}, 3},
		{Sel(Rel{"R"}, Eq{0, 1}), 2},
	}
	for _, tc := range cases {
		if got := Arity(tc.e, d); got != tc.want {
			t.Errorf("Arity(%s) = %d, want %d", tc.e, got, tc.want)
		}
		if err := Validate(tc.e, d); err != nil {
			t.Errorf("Validate(%s): %v", tc.e, err)
		}
	}
	bad := []Expr{
		Rel{"missing"},
		Union{Rel{"R"}, Rel{"S"}},
		Proj(Rel{"S"}, 4),
		Divide{Rel{"S"}, Rel{"R"}},
		Sel(Rel{"S"}, Eq{0, 5}),
		Sel(Rel{"S"}, EqConst{0, n(1)}),
		Sel(Rel{"S"}, InSub{Cols: []int{0}, Sub: Rel{"R"}}),
	}
	for _, e := range bad {
		if err := Validate(e, d); err == nil {
			t.Errorf("Validate(%s) should fail", e)
		}
	}
}

func TestEvalRelSetAndBag(t *testing.T) {
	d := relation.NewDatabase()
	r := relation.New("R", "a")
	r.AddMult(value.Consts("x"), 3)
	d.Add(r)
	if got := EvalInterp(d, Rel{"R"}, ModeNaive); got.Mult(value.Consts("x")) != 1 {
		t.Fatalf("set eval should normalize, got %v", got)
	}
	if got := EvalBagInterp(d, Rel{"R"}, ModeNaive); got.Mult(value.Consts("x")) != 3 {
		t.Fatalf("bag eval should keep multiplicities, got %v", got)
	}
	// Source must not be mutated by evaluation.
	if r.Mult(value.Consts("x")) != 3 {
		t.Fatalf("evaluation mutated the database")
	}
}

func TestSelectNaiveVsSQLOnNulls(t *testing.T) {
	d := db1()
	// σ_{a=b}(R): naive keeps (⊥2,⊥2) (same marked null), SQL drops it.
	q := Sel(Rel{"R"}, Eq{0, 1})
	naive := EvalInterp(d, q, ModeNaive)
	if !naive.Contains(value.T(n(2), n(2))) {
		t.Errorf("naive should keep (⊥2,⊥2): %v", naive)
	}
	if naive.Contains(value.T(c("1"), n(1))) {
		t.Errorf("naive must not equate ⊥1 with 1")
	}
	sql := EvalInterp(d, q, ModeSQL)
	if sql.Len() != 0 {
		t.Errorf("SQL mode: comparisons with nulls are unknown, got %v", sql)
	}
}

func TestSelectConstNullTests(t *testing.T) {
	d := db1()
	nullB := EvalInterp(d, Sel(Rel{"R"}, IsNull{1}), ModeSQL)
	if nullB.Len() != 2 {
		t.Errorf("two rows have null b: %v", nullB)
	}
	constB := EvalInterp(d, Sel(Rel{"R"}, IsConst{1}), ModeSQL)
	if constB.Len() != 1 || !constB.Contains(value.T(c("1"), c("2"))) {
		t.Errorf("const(b) wrong: %v", constB)
	}
}

func TestTautologyFailsInSQLMode(t *testing.T) {
	// The introduction's third example: oid='o2' OR oid<>'o2' misses rows
	// with nulls under SQL evaluation.
	d := relation.NewDatabase()
	p := relation.New("P", "cid", "oid")
	p.Add(value.Consts("c1", "o1"))
	p.Add(value.T(c("c2"), n(1)))
	d.Add(p)
	q := Proj(Sel(Rel{"P"}, Or{EqConst{1, c("o2")}, NeqConst{1, c("o2")}}), 0)
	got := EvalInterp(d, q, ModeSQL)
	if got.Len() != 1 || !got.Contains(value.Consts("c1")) {
		t.Fatalf("SQL evaluation of tautology = %v, want {c1}", got)
	}
	// Naive evaluation returns both: ⊥1 ≠ o2 as a fresh constant.
	naive := EvalInterp(d, q, ModeNaive)
	if naive.Len() != 2 {
		t.Fatalf("naive = %v, want both customers", naive)
	}
}

func TestProductUnionDiffIntersect(t *testing.T) {
	d := relation.NewDatabase()
	a := relation.New("A", "x")
	a.Add(value.Consts("1"))
	a.Add(value.Consts("2"))
	d.Add(a)
	b := relation.New("B", "y")
	b.Add(value.Consts("2"))
	b.Add(value.Consts("3"))
	d.Add(b)

	prod := EvalInterp(d, Product{Rel{"A"}, Rel{"B"}}, ModeNaive)
	if prod.Len() != 4 || prod.Arity() != 2 {
		t.Errorf("product wrong: %v", prod)
	}
	un := EvalInterp(d, Union{Rel{"A"}, Rel{"B"}}, ModeNaive)
	if un.Len() != 3 {
		t.Errorf("union wrong: %v", un)
	}
	df := EvalInterp(d, Diff{Rel{"A"}, Rel{"B"}}, ModeNaive)
	if df.Len() != 1 || !df.Contains(value.Consts("1")) {
		t.Errorf("difference wrong: %v", df)
	}
	in := EvalInterp(d, Intersect{Rel{"A"}, Rel{"B"}}, ModeNaive)
	if in.Len() != 1 || !in.Contains(value.Consts("2")) {
		t.Errorf("intersection wrong: %v", in)
	}
}

func TestBagSemanticsArithmetic(t *testing.T) {
	d := relation.NewDatabase()
	a := relation.New("A", "x")
	a.AddMult(value.Consts("t"), 3)
	d.Add(a)
	b := relation.New("B", "x")
	b.AddMult(value.Consts("t"), 1)
	d.Add(b)

	if got := EvalBagInterp(d, Union{Rel{"A"}, Rel{"B"}}, ModeNaive); got.Mult(value.Consts("t")) != 4 {
		t.Errorf("bag union adds: got %d", got.Mult(value.Consts("t")))
	}
	if got := EvalBagInterp(d, Diff{Rel{"A"}, Rel{"B"}}, ModeNaive); got.Mult(value.Consts("t")) != 2 {
		t.Errorf("bag difference subtracts: got %d", got.Mult(value.Consts("t")))
	}
	if got := EvalBagInterp(d, Diff{Rel{"B"}, Rel{"A"}}, ModeNaive); got.Len() != 0 {
		t.Errorf("bag difference clamps at zero: got %v", got)
	}
	if got := EvalBagInterp(d, Intersect{Rel{"A"}, Rel{"B"}}, ModeNaive); got.Mult(value.Consts("t")) != 1 {
		t.Errorf("bag intersection takes min: got %v", got)
	}
	if got := EvalBagInterp(d, Product{Rel{"A"}, Rel{"B"}}, ModeNaive); got.Mult(value.Consts("t", "t")) != 3 {
		t.Errorf("bag product multiplies: got %v", got)
	}
	if got := EvalBagInterp(d, Proj(Union{Rel{"A"}, Rel{"B"}}, 0), ModeNaive); got.Mult(value.Consts("t")) != 4 {
		t.Errorf("bag projection sums: got %v", got)
	}
}

func TestDivision(t *testing.T) {
	// Employees participating in all projects: works ÷ projects.
	d := relation.NewDatabase()
	w := relation.New("Works", "emp", "proj")
	w.Add(value.Consts("ann", "p1"))
	w.Add(value.Consts("ann", "p2"))
	w.Add(value.Consts("bob", "p1"))
	d.Add(w)
	p := relation.New("Proj", "proj")
	p.Add(value.Consts("p1"))
	p.Add(value.Consts("p2"))
	d.Add(p)
	got := EvalInterp(d, Divide{Rel{"Works"}, Rel{"Proj"}}, ModeNaive)
	if got.Len() != 1 || !got.Contains(value.Consts("ann")) {
		t.Fatalf("division = %v, want {ann}", got)
	}
	// Empty divisor: every left projection qualifies.
	d.Add(relation.New("None", "proj"))
	all := EvalInterp(d, Divide{Rel{"Works"}, Rel{"None"}}, ModeNaive)
	if all.Len() != 2 {
		t.Fatalf("division by empty = %v", all)
	}
}

func TestAntiUnify(t *testing.T) {
	d := relation.NewDatabase()
	l := relation.New("L", "a", "b")
	l.Add(value.T(c("1"), c("2")))
	l.Add(value.T(c("3"), c("4")))
	l.Add(value.T(n(1), n(1)))
	d.Add(l)
	r := relation.New("Rr", "a", "b")
	r.Add(value.T(c("1"), n(2))) // unifies with (1,2)
	r.Add(value.T(c("7"), c("8")))
	d.Add(r)
	got := EvalInterp(d, AntiUnify{Rel{"L"}, Rel{"Rr"}}, ModeNaive)
	// (1,2) unifies with (1,⊥2); (⊥1,⊥1) unifies with (7,8)? ⊥1=7 and ⊥1=8
	// conflict — no; but (⊥1,⊥1) unifies with (1,⊥2). So only (3,4) survives.
	if got.Len() != 1 || !got.Contains(value.Consts("3", "4")) {
		t.Fatalf("anti-unify = %v, want {(3,4)}", got)
	}
}

func TestDomPower(t *testing.T) {
	d := db1()
	adom := len(d.ActiveDomain())
	got := EvalInterp(d, Dom{2}, ModeNaive)
	if got.Len() != adom*adom {
		t.Fatalf("Dom^2 size = %d, want %d", got.Len(), adom*adom)
	}
	empty := EvalInterp(d, Dom{0}, ModeNaive)
	if !BooleanResult(empty) {
		t.Fatalf("Dom^0 must be the singleton empty tuple")
	}
}

func TestInSubThreeValued(t *testing.T) {
	// NOT IN with a null in the subquery: the unpaid-orders anomaly.
	d := relation.NewDatabase()
	o := relation.New("O", "oid")
	o.Add(value.Consts("o1"))
	o.Add(value.Consts("o2"))
	o.Add(value.Consts("o3"))
	d.Add(o)
	p := relation.New("P", "oid")
	p.Add(value.Consts("o1"))
	p.Add(value.T(n(1)))
	d.Add(p)
	q := Sel(Rel{"O"}, Not{InSub{Cols: []int{0}, Sub: Rel{"P"}}})
	got := EvalInterp(d, q, ModeSQL)
	if got.Len() != 0 {
		t.Fatalf("SQL NOT IN with null should return nothing, got %v", got)
	}
	// Positive IN: o1 IN P is t even with the null present.
	pos := EvalInterp(d, Sel(Rel{"O"}, InSub{Cols: []int{0}, Sub: Rel{"P"}}), ModeSQL)
	if pos.Len() != 1 || !pos.Contains(value.Consts("o1")) {
		t.Fatalf("SQL IN = %v, want {o1}", pos)
	}
	// Naive mode treats the null as a fresh constant: o2, o3 pass NOT IN.
	naive := EvalInterp(d, q, ModeNaive)
	if naive.Len() != 2 {
		t.Fatalf("naive NOT IN = %v", naive)
	}
}

func TestLessComparisons(t *testing.T) {
	d := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.Consts("3", "10"))
	r.Add(value.Consts("10", "3"))
	r.Add(value.T(n(1), c("10")))
	d.Add(r)
	lt := EvalInterp(d, Sel(Rel{"R"}, Less{0, 1}), ModeSQL)
	if lt.Len() != 1 || !lt.Contains(value.Consts("3", "10")) {
		t.Fatalf("numeric < wrong: %v", lt)
	}
	ltc := EvalInterp(d, Sel(Rel{"R"}, LessConst{0, c("5")}), ModeSQL)
	if ltc.Len() != 1 || !ltc.Contains(value.Consts("3", "10")) {
		t.Fatalf("< const wrong: %v", ltc)
	}
	gtc := EvalInterp(d, Sel(Rel{"R"}, GreaterConst{0, c("5")}), ModeSQL)
	if gtc.Len() != 1 || !gtc.Contains(value.Consts("10", "3")) {
		t.Fatalf("> const wrong: %v", gtc)
	}
	// Null comparisons: F under naive, dropped under SQL too (never t).
	if got := EvalInterp(d, Sel(Rel{"R"}, Less{0, 1}), ModeNaive); got.Contains(value.T(n(1), c("10"))) {
		t.Fatalf("naive must not order nulls")
	}
}

func TestNegatePushesThrough(t *testing.T) {
	cond := And{Eq{0, 1}, IsNull{0}}
	neg := Negate(cond)
	// ¬(A=B ∧ null(A)) = A≠B ∨ const(A) — the paper's example.
	or, ok := neg.(Or)
	if !ok {
		t.Fatalf("Negate shape: %T", neg)
	}
	if _, ok := or.L.(Neq); !ok {
		t.Fatalf("left should be ≠: %v", or)
	}
	if _, ok := or.R.(IsConst); !ok {
		t.Fatalf("right should be const: %v", or)
	}
	if _, ok := Negate(Not{Eq{0, 1}}).(Eq); !ok {
		t.Fatalf("double negation should cancel")
	}
	if _, ok := Negate(True{}).(False); !ok {
		t.Fatalf("¬true = false")
	}
}

func TestNegateIsComplementUnderSQL(t *testing.T) {
	// For every grammar condition and tuple: eval(¬θ) = ¬eval(θ) in L3v.
	tuples := []value.Tuple{
		value.Consts("1", "1"), value.Consts("1", "2"),
		value.T(n(1), c("1")), value.T(n(1), n(1)), value.T(n(1), n(2)),
		value.Consts("2", "10"),
	}
	conds := []Cond{
		Eq{0, 1}, Neq{0, 1}, EqConst{0, c("1")}, NeqConst{1, c("2")},
		IsNull{0}, IsConst{1}, Less{0, 1}, LessConst{0, c("5")}, GreaterConst{0, c("5")},
		And{Eq{0, 1}, IsConst{0}}, Or{IsNull{0}, EqConst{1, c("1")}},
		True{}, False{},
	}
	env := &evalEnv{subs: map[string]*relation.Relation{}}
	for _, cd := range conds {
		for _, tp := range tuples {
			for _, mode := range []Mode{ModeNaive, ModeSQL} {
				got := evalCond(Negate(cd), tp, mode, env)
				want := logic.Not(evalCond(cd, tp, mode, env))
				if got != want {
					t.Errorf("mode %v: eval(¬(%s))(%v) = %v, want %v", mode, cd, tp, got, want)
				}
			}
		}
	}
}

func TestStarGuardsDisequalities(t *testing.T) {
	env := &evalEnv{subs: map[string]*relation.Relation{}}
	// ⊥1 ≠ 'c' is naively true but not certain; θ* must reject it.
	tp := value.T(n(1), c("c"))
	if evalCond(NeqConst{0, c("c")}, tp, ModeNaive, env) != logic.T {
		t.Fatalf("naive ≠ should hold on a null")
	}
	if evalCond(Star(NeqConst{0, c("c")}), tp, ModeNaive, env) != logic.F {
		t.Fatalf("θ* must guard ≠ with const()")
	}
	// Constants still pass.
	tp2 := value.Consts("a", "c")
	if evalCond(Star(NeqConst{0, c("c")}), tp2, ModeNaive, env) != logic.T {
		t.Fatalf("θ* must keep certain disequalities")
	}
	// ⊥1 ≠ ⊥2 likewise guarded; ⊥1 = ⊥1 stays (certainly equal).
	tp3 := value.T(n(1), n(2))
	if evalCond(Star(Neq{0, 1}), tp3, ModeNaive, env) != logic.F {
		t.Fatalf("θ* must guard attribute ≠")
	}
	tp4 := value.T(n(1), n(1))
	if evalCond(Star(Eq{0, 1}), tp4, ModeNaive, env) != logic.T {
		t.Fatalf("⊥=⊥ (same null) is certain and must pass θ*")
	}
}

func TestStarRejectsInSub(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Star must reject IN subqueries")
		}
	}()
	Star(InSub{Cols: []int{0}, Sub: Rel{"R"}})
}

func TestNodesAndString(t *testing.T) {
	e := Sel(Product{Rel{"R"}, Rel{"S"}}, And{Eq{0, 2}, NeqConst{1, c("x")}})
	nodes := 0
	Walk(e, func(Expr) bool { nodes++; return true }, func(Cond) bool { nodes++; return true })
	if nodes != 7 {
		t.Fatalf("Walk visited %d nodes, want 7", nodes)
	}
	s := e.String()
	for _, frag := range []string{"σ", "×", "∧", "≠"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String %q missing %q", s, frag)
		}
	}
	if (Dom{2}).String() != "Dom^2" {
		t.Fatalf("Dom string wrong")
	}
}

func TestBooleanResult(t *testing.T) {
	d := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("x"))
	d.Add(r)
	yes := EvalInterp(d, Proj(Sel(Rel{"R"}, EqConst{0, c("x")})), ModeNaive)
	if !BooleanResult(yes) {
		t.Fatalf("Boolean query should be true")
	}
	no := EvalInterp(d, Proj(Sel(Rel{"R"}, EqConst{0, c("zz")})), ModeNaive)
	if BooleanResult(no) {
		t.Fatalf("Boolean query should be false")
	}
}

func TestJoinHelper(t *testing.T) {
	d := relation.NewDatabase()
	a := relation.New("A", "x", "y")
	a.Add(value.Consts("1", "a"))
	d.Add(a)
	b := relation.New("B", "x", "z")
	b.Add(value.Consts("1", "b"))
	b.Add(value.Consts("2", "c"))
	d.Add(b)
	got := EvalInterp(d, Join(Rel{"A"}, Rel{"B"}, Eq{0, 2}), ModeNaive)
	if got.Len() != 1 || !got.Contains(value.Consts("1", "a", "1", "b")) {
		t.Fatalf("join = %v", got)
	}
}
