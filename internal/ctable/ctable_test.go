package ctable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/gen"
	"incdb/internal/logic"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/translate"
	"incdb/internal/value"
)

func c(s string) value.Value  { return value.Const(s) }
func n(id uint64) value.Value { return value.Null(id) }

var allStrategies = []Strategy{Eager, SemiEager, Lazy, Aware}

func TestGroundAtoms(t *testing.T) {
	cases := []struct {
		f    Formula
		want logic.TV
	}{
		{FEq{c("a"), c("a")}, logic.T},
		{FEq{c("a"), c("b")}, logic.F},
		{FEq{n(1), n(1)}, logic.T},
		{FEq{n(1), n(2)}, logic.U},
		{FEq{n(1), c("a")}, logic.U},
		{FNeq{n(1), c("a")}, logic.U},
		{FNeq{c("a"), c("b")}, logic.T},
		{FLess{c("2"), c("10")}, logic.T},
		{FLess{n(1), c("10")}, logic.U},
		{FTrue{}, logic.T},
		{FFalse{}, logic.F},
		{FUnknown{}, logic.U},
	}
	for _, tc := range cases {
		if got := Ground(tc.f); got != tc.want {
			t.Errorf("Ground(%s) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestGroundIsAtomwiseButEqTupleUnifies(t *testing.T) {
	// Ground is a pure Kleene fold: ⊥=a ∧ ⊥=b stays u (exactly as the
	// Figure 2(b) queries see it) even though it is jointly unsatisfiable;
	// the aware strategy's Minimize is what detects the conflict.
	f := FAnd{FEq{n(1), c("a")}, FEq{n(1), c("b")}}
	if got := Ground(f); got != logic.U {
		t.Fatalf("Ground = %v, want u (atomwise)", got)
	}
	if got := Ground(Minimize(f)); got != logic.F {
		t.Fatalf("Minimize must detect unsatisfiability: %v", got)
	}
	// Tuple equality is a single atom whose grounding is unification:
	// (⊥,⊥) = (a,b) is certainly false via the transitive conflict.
	g := FEqTuple{R: value.T(n(1), n(1)), S: value.T(c("a"), c("b"))}
	if got := Ground(g); got != logic.F {
		t.Fatalf("Ground(FEqTuple) = %v, want f", got)
	}
	if got := Ground(FEqTuple{R: value.T(n(1), n(2)), S: value.T(c("a"), c("b"))}); got != logic.U {
		t.Fatalf("unifiable non-identical tuples must ground to u: %v", got)
	}
	if got := Ground(FEqTuple{R: value.T(n(1), c("a")), S: value.T(n(1), c("a"))}); got != logic.T {
		t.Fatalf("identical tuples must ground to t: %v", got)
	}
}

func TestGroundKleeneFold(t *testing.T) {
	u := FEq{n(1), c("a")}
	if Ground(FOr{u, FTrue{}}) != logic.T {
		t.Fatalf("u ∨ t = t")
	}
	if Ground(FOr{u, u}) != logic.U {
		t.Fatalf("plain grounding does not detect tautologies")
	}
	if Ground(FNot{u}) != logic.U {
		t.Fatalf("¬u = u")
	}
}

func TestForcedEqualities(t *testing.T) {
	// The paper's semi-eager example: ⊥1=c ∧ ⊥1=⊥2 forces ⊥1,⊥2 ↦ c.
	f := FAnd{FEq{n(1), c("c")}, FEq{n(1), n(2)}}
	m := ForcedEqualities(f)
	if m[1] != c("c") || m[2] != c("c") {
		t.Fatalf("ForcedEqualities = %v", m)
	}
	// Disjunctions force nothing (atoms inside Or are not conjuncts).
	g := FOr{FEq{n(1), c("c")}, FEq{n(1), c("d")}}
	if got := ForcedEqualities(g); len(got) != 0 {
		t.Fatalf("Or must not force: %v", got)
	}
}

func TestSubstitute(t *testing.T) {
	m := map[uint64]value.Value{1: c("k")}
	f := Substitute(FAnd{FEq{n(1), n(2)}, FNeq{n(1), c("z")}}, m)
	want := FAnd{FEq{c("k"), n(2)}, FNeq{c("k"), c("z")}}
	if f.String() != want.String() {
		t.Fatalf("Substitute = %s, want %s", f, want)
	}
	tp := SubstituteTuple(value.T(n(1), n(3)), m)
	if !tp.Equal(value.T(c("k"), n(3))) {
		t.Fatalf("SubstituteTuple = %v", tp)
	}
}

func TestMinimizeTautologyAndContradiction(t *testing.T) {
	u1 := FEq{n(1), c("a")}
	// φ ∨ ¬φ with FEq/FNeq complements → t.
	taut := FOr{u1, FNeq{n(1), c("a")}}
	if _, ok := Minimize(taut).(FTrue); !ok {
		t.Fatalf("Minimize(%s) = %s, want t", taut, Minimize(taut))
	}
	// φ ∧ ¬φ → f.
	contra := FAnd{u1, FNeq{n(1), c("a")}}
	if _, ok := Minimize(contra).(FFalse); !ok {
		t.Fatalf("Minimize(%s) = %s, want f", contra, Minimize(contra))
	}
	// Unsat conjunction → f.
	unsat := FAnd{FEq{n(1), c("a")}, FEq{n(1), c("b")}}
	if _, ok := Minimize(unsat).(FFalse); !ok {
		t.Fatalf("Minimize(%s) should be f", unsat)
	}
	// Duplicates collapse: u ∨ u keeps a single atom.
	dup := Minimize(FOr{u1, u1})
	if dup.String() != u1.String() {
		t.Fatalf("Minimize dedup = %s", dup)
	}
}

func TestMinimizePreservesGroundValue(t *testing.T) {
	// Property: Minimize never changes the grounded value except u → t/f
	// (more information). Check over random formulas.
	r := rand.New(rand.NewSource(9))
	vals := []value.Value{c("a"), c("b"), n(1), n(2)}
	var randF func(depth int) Formula
	randF = func(depth int) Formula {
		if depth == 0 {
			a, b := vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]
			switch r.Intn(3) {
			case 0:
				return FEq{a, b}
			case 1:
				return FNeq{a, b}
			default:
				return FLess{a, b}
			}
		}
		switch r.Intn(3) {
		case 0:
			return FAnd{randF(depth - 1), randF(depth - 1)}
		case 1:
			return FOr{randF(depth - 1), randF(depth - 1)}
		default:
			return FNot{randF(depth - 1)}
		}
	}
	for i := 0; i < 500; i++ {
		f := randF(3)
		before, after := Ground(f), Ground(Minimize(f))
		if before != after && before != logic.U {
			t.Fatalf("Minimize changed %s: %v → %v", f, before, after)
		}
	}
}

func exampleDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)
	return db
}

func TestEvalBaseAndDifference(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	for _, s := range allStrategies {
		tr, err := EvalTrue(db, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if tr.Len() != 0 {
			t.Errorf("%v: Eval_t = %v, want ∅ (1 may equal ⊥)", s, tr)
		}
		ps, err := EvalPossible(db, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ps.Contains(value.Consts("1")) {
			t.Errorf("%v: Eval_p = %v, want {1}", s, ps)
		}
	}
}

// The aware strategy sees through the introduction's tautology example
// where the others cannot: σ(a=o2 ∨ a≠o2)(P) on P = {o1, ⊥}.
func TestAwareDetectsTautology(t *testing.T) {
	db := relation.NewDatabase()
	p := relation.New("P", "oid")
	p.Add(value.Consts("o1"))
	p.Add(value.T(n(1)))
	db.Add(p)
	q := algebra.Sel(algebra.R("P"), algebra.COr(
		algebra.CEqC(0, c("o2")),
		algebra.CNeqC(0, c("o2")),
	))
	for _, s := range []Strategy{Eager, SemiEager, Lazy} {
		tr, err := EvalTrue(db, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 1 {
			t.Errorf("%v should certify only o1: %v", s, tr)
		}
	}
	tr, err := EvalTrue(db, q, Aware)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("aware should certify both (tautology): %v", tr)
	}
	// And this matches the exact certain answers.
	cert, err := certain.WithNulls(db, q, certain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.EqualSet(cert) {
		t.Errorf("aware = %v, cert⊥ = %v", tr, cert)
	}
}

// The semi-eager refinement: projection of a join forcing ⊥ = c yields the
// instantiated tuple c rather than ⊥.
func TestSemiEagerPropagatesEqualities(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.T(n(1)))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.Consts("k"))
	db.Add(s)
	// π0(σ_{#0=#1}(R × S)): the condition forces ⊥1 = k.
	q := algebra.Proj(algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 1)), 0)
	eag, err := EvalPossible(db, q, Eager)
	if err != nil {
		t.Fatal(err)
	}
	sem, err := EvalPossible(db, q, SemiEager)
	if err != nil {
		t.Fatal(err)
	}
	if !eag.Contains(value.T(n(1))) {
		t.Errorf("eager keeps the null form: %v", eag)
	}
	if !sem.Contains(value.Consts("k")) {
		t.Errorf("semi-eager must instantiate ⊥1 to k: %v", sem)
	}
}

// Aware prunes conditions that are jointly unsatisfiable across operators,
// which strategies grounding atomwise cannot see.
func TestAwarePrunesUnsatisfiableConditions(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.T(n(1)))
	db.Add(r)
	// σ_{a=c1}(σ_{a=c2}(R)): jointly unsatisfiable on ⊥1.
	q := algebra.Sel(algebra.Sel(algebra.R("R"), algebra.CEqC(0, c("c2"))), algebra.CEqC(0, c("c1")))
	for _, s := range []Strategy{Eager, Lazy} {
		ps, err := EvalPossible(db, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Len() == 0 {
			t.Errorf("%v grounds atomwise and keeps the row as possible: %v", s, ps)
		}
	}
	// Semi-eager prunes too, through a different mechanism: it instantiates
	// ⊥1 ↦ c2 after the first selection, making the second decidably false.
	for _, s := range []Strategy{SemiEager, Aware} {
		ps, err := EvalPossible(db, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Len() != 0 {
			t.Errorf("%v must prune the unsatisfiable row: %v", s, ps)
		}
	}
}

// Theorem 4.9, first half: Q⁺(D) = Evalᵉ_t(Q,D) and Q?(D) = Evalᵉ_p(Q,D).
func TestEagerMatchesFig2b(t *testing.T) {
	r := rand.New(rand.NewSource(409))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 200; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1+r.Intn(2))
		plus, poss, err := translate.Fig2b(q)
		if err != nil {
			t.Fatal(err)
		}
		wantPlus := plan.Naive(db, plus)
		wantPoss := plan.Naive(db, poss)
		gotTrue, err := EvalTrue(db, q, Eager)
		if err != nil {
			t.Fatal(err)
		}
		gotPoss, err := EvalPossible(db, q, Eager)
		if err != nil {
			t.Fatal(err)
		}
		if !gotTrue.EqualSet(wantPlus) {
			t.Fatalf("trial %d: Evalᵉ_t = %v ≠ Q+ = %v\nQ = %s\nD = %v",
				trial, gotTrue, wantPlus, q, db)
		}
		if !gotPoss.EqualSet(wantPoss) {
			t.Fatalf("trial %d: Evalᵉ_p = %v ≠ Q? = %v\nQ = %s\nD = %v",
				trial, gotPoss, wantPoss, q, db)
		}
	}
}

// Theorem 4.9, second half: every strategy has correctness guarantees
// (Eval⋆_t ⊆ cert⊥), and the certain parts are ordered
// eager ⊆ semi-eager ⊆ lazy ⊆ aware.
func TestStrategiesCorrectAndOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(436))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 120; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1+r.Intn(2))
		cert, err := certain.WithNulls(db, q, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var results []*relation.Relation
		for _, s := range allStrategies {
			tr, err := EvalTrue(db, q, s)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.SubsetOfSet(cert) {
				t.Fatalf("trial %d: Eval%v_t ⊄ cert⊥\nQ = %s\nD = %v\ngot %v cert %v",
					trial, s, q, db, tr, cert)
			}
			results = append(results, tr)
		}
		for i := 0; i+1 < len(results); i++ {
			if !results[i].SubsetOfSet(results[i+1]) {
				t.Fatalf("trial %d: Eval%v_t ⊄ Eval%v_t\nQ = %s\nD = %v",
					trial, allStrategies[i], allStrategies[i+1], q, db)
			}
		}
	}
}

// Possible sides over-approximate: Q(v(D)) ⊆ v(Eval⋆_p) for all valuations.
func TestPossibleSidesOverApproximate(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 60; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1)
		space, err := certain.NewSpace(db, algebra.ConstsOf(q), certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range allStrategies {
			ps, err := EvalPossible(db, q, s)
			if err != nil {
				t.Fatal(err)
			}
			space.Each(func(v value.Valuation) bool {
				res := plan.Eval(db.Apply(v), q, algebra.ModeNaive)
				img := relation.NewArity("img", ps.Arity())
				ps.Each(func(tp value.Tuple, _ int) { img.Add(v.Apply(tp)) })
				ok := true
				res.Each(func(tp value.Tuple, _ int) {
					if !img.Contains(tp) {
						t.Errorf("trial %d %v: %v ∈ Q(v(D)) missing from v(Eval_p)\nQ = %s\nD = %v\nv = %v",
							trial, s, tp, q, db, v)
						ok = false
					}
				})
				return ok
			})
			if t.Failed() {
				return
			}
		}
	}
}

func TestOutsideFragment(t *testing.T) {
	db := gen.Schema()
	if _, err := Eval(db, algebra.Div(algebra.R("R"), algebra.R("S")), Eager); err == nil {
		t.Fatalf("division should be rejected")
	}
	if _, err := Eval(db, algebra.Sel(algebra.R("S"), algebra.CIn(algebra.R("S"), 0)), Aware); err == nil {
		t.Fatalf("IN subquery should be rejected")
	}
	if _, err := Eval(db, algebra.R("missing"), Lazy); err == nil {
		t.Fatalf("unknown relation should be rejected")
	}
}

func TestCTableString(t *testing.T) {
	db := exampleDB()
	ct, err := Eval(db, algebra.R("S"), Aware)
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.String(); got == "" {
		t.Fatalf("empty rendering")
	}
}

// TestProductBeyondBoundRefused: a product of more than maxProductRows
// c-rows is refused with an error naming both sides, before any is built.
func TestProductBeyondBoundRefused(t *testing.T) {
	db := relation.NewDatabase()
	for name, n := range map[string]int{"A": 1025, "B": 1024} {
		r := relation.New(name, "x")
		for i := 0; i < n; i++ {
			r.Add(value.Consts(fmt.Sprintf("%s%d", name, i)))
		}
		db.Add(r)
	}
	_, err := Eval(db, algebra.Times(algebra.R("A"), algebra.R("B")), Eager)
	if err == nil || !strings.Contains(err.Error(), "1025 × 1024") {
		t.Fatalf("Eval of a 1025 × 1024 product: err %v, want it refused", err)
	}
}
