package certain

import (
	"fmt"
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/value"
)

func c(s string) value.Value  { return value.Const(s) }
func n(id uint64) value.Value { return value.Null(id) }

func mustWithNulls(t *testing.T, db *relation.Database, q algebra.Expr) *relation.Relation {
	t.Helper()
	r, err := WithNulls(db, q, Options{})
	if err != nil {
		t.Fatalf("WithNulls: %v", err)
	}
	return r
}

// The running example of Section 4.2/4.3: R = {1}, S = {⊥}. Naive
// evaluation of R − S returns {1} but the certain answers are empty.
func TestDifferenceWithNullIsUncertain(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)

	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	naive := plan.Naive(db, q)
	if naive.Len() != 1 || !naive.Contains(value.Consts("1")) {
		t.Fatalf("naive = %v, want {1}", naive)
	}
	cert := mustWithNulls(t, db, q)
	if cert.Len() != 0 {
		t.Fatalf("cert⊥ = %v, want ∅", cert)
	}
}

// cert⊥(R, {R(⊥)}) = {⊥}: certain answers with nulls keep the certain
// information that ⊥ is in R (Section 3.2), unlike cert∩ which is empty.
func TestIdentityQueryKeepsNull(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.T(n(1)))
	db.Add(r)
	q := algebra.R("R")
	cert := mustWithNulls(t, db, q)
	if cert.Len() != 1 || !cert.Contains(value.T(n(1))) {
		t.Fatalf("cert⊥ = %v, want {⊥1}", cert)
	}
	inter, err := Intersection(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inter.Len() != 0 {
		t.Fatalf("cert∩ = %v, want ∅", inter)
	}
}

// Proposition 3.10: cert∩(Q,D) = cert⊥(Q,D) ∩ Const(D)^m.
func TestProposition310(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(c("1"), c("2")))
	r.Add(value.T(c("3"), n(1)))
	r.Add(value.T(n(2), n(2)))
	db.Add(r)
	queries := []algebra.Expr{
		algebra.R("R"),
		algebra.Proj(algebra.R("R"), 0),
		algebra.Sel(algebra.R("R"), algebra.CEq(0, 1)),
		algebra.Un(algebra.Proj(algebra.R("R"), 0), algebra.Proj(algebra.R("R"), 1)),
	}
	for _, q := range queries {
		cert := mustWithNulls(t, db, q)
		inter, err := Intersection(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// cert∩ must equal the constant tuples of cert⊥.
		want := relation.NewArity("w", cert.Arity())
		cert.Each(func(tp value.Tuple, _ int) {
			if tp.AllConst() {
				want.Add(tp)
			}
		})
		if !inter.EqualSet(want) {
			t.Errorf("query %s: cert∩ = %v, const part of cert⊥ = %v", q, inter, want)
		}
	}
}

// Theorem 4.4 (cwa): naive evaluation computes cert⊥ for positive queries;
// sanity-check on a UCQ with joins and a union.
func TestNaiveEqualsCertForPositiveQueries(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(c("1"), n(1)))
	r.Add(value.T(n(1), c("2")))
	r.Add(value.T(c("2"), c("3")))
	db.Add(r)

	// π0,3(σ #1=#2 (R×R)) ∪ R — a UCQ.
	join := algebra.Proj(algebra.Join(algebra.R("R"), algebra.R("R"), algebra.CEq(1, 2)), 0, 3)
	q := algebra.Un(join, algebra.R("R"))
	naive := plan.Naive(db, q)
	cert := mustWithNulls(t, db, q)
	if !naive.EqualSet(cert) {
		t.Fatalf("naive = %v, cert⊥ = %v; they must coincide for UCQs under cwa", naive, cert)
	}
}

// Pos∀G beyond UCQs: division is preserved under strong onto homomorphisms
// and naive evaluation stays correct under cwa (Theorem 4.4).
func TestNaiveEqualsCertForDivision(t *testing.T) {
	db := relation.NewDatabase()
	w := relation.New("W", "e", "p")
	w.Add(value.T(c("ann"), c("p1")))
	w.Add(value.T(c("ann"), n(1)))
	w.Add(value.T(c("bob"), c("p1")))
	db.Add(w)
	p := relation.New("P", "p")
	p.Add(value.Consts("p1"))
	p.Add(value.T(n(1)))
	db.Add(p)

	q := algebra.Div(algebra.R("W"), algebra.R("P"))
	naive := plan.Naive(db, q)
	cert := mustWithNulls(t, db, q)
	if !naive.EqualSet(cert) {
		t.Fatalf("naive = %v, cert⊥ = %v; division is Pos∀G so they must agree", naive, cert)
	}
	if !cert.Contains(value.Consts("ann")) {
		t.Fatalf("ann works on p1 and on ⊥1 — certainly on all projects: %v", cert)
	}
}

// The S ⊆ T example of Section 4.3: T = {1,2}, S = {⊥}; cert(T−S) is empty
// because ⊥ may be either element.
func TestInclusionExampleCertEmpty(t *testing.T) {
	db := relation.NewDatabase()
	tt := relation.New("T", "a")
	tt.Add(value.Consts("1"))
	tt.Add(value.Consts("2"))
	db.Add(tt)
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)
	cert := mustWithNulls(t, db, algebra.Minus(algebra.R("T"), algebra.R("S")))
	if cert.Len() != 0 {
		t.Fatalf("cert⊥ = %v, want ∅", cert)
	}
}

func TestBoolCertainty(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.T(n(1)))
	db.Add(r)
	// ∃x R(x): true in every world.
	exists := algebra.Proj(algebra.R("R"))
	got, err := Bool(db, exists, Options{})
	if err != nil || !got {
		t.Fatalf("∃x R(x) must be certainly true: %v %v", got, err)
	}
	// R(2)? (σ_{a=2}R ≠ ∅): true only if ⊥ ↦ 2 — not certain. This is the
	// Proposition 3.5 example.
	r2 := algebra.Proj(algebra.Sel(algebra.R("R"), algebra.CEqC(0, c("2"))))
	got, err = Bool(db, r2, Options{})
	if err != nil || got {
		t.Fatalf("R(2) must not be certain: %v %v", got, err)
	}
	// But it is possible.
	poss, err := PossibleTuple(db, r2, value.Tuple{}, Options{})
	if err != nil || !poss {
		t.Fatalf("R(2) must be possible: %v %v", poss, err)
	}
}

func TestCertainTupleMatchesWithNulls(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.T(n(1)))
	r.Add(value.Consts("k"))
	db.Add(r)
	q := algebra.R("R")
	cert := mustWithNulls(t, db, q)
	for _, tp := range []value.Tuple{value.T(n(1)), value.Consts("k"), value.Consts("zz")} {
		got, err := CertainTuple(db, q, tp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != cert.Contains(tp) {
			t.Errorf("CertainTuple(%v) = %v, cert⊥ contains = %v", tp, got, cert.Contains(tp))
		}
	}
}

func TestBagBounds(t *testing.T) {
	// R = {1, ⊥}: multiplicity of 1 in R ranges over {1, 2}.
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	r.Add(value.T(n(1)))
	db.Add(r)
	q := algebra.R("R")
	box, err := BoxMult(db, q, value.Consts("1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dia, err := DiamondMult(db, q, value.Consts("1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if box != 1 || dia != 2 {
		t.Fatalf("□ = %d, ◇ = %d; want 1, 2", box, dia)
	}
	// Under set semantics, □Q = 1 means certain membership.
	if box >= 1 {
		ok, err := CertainTuple(db, q, value.Consts("1"), Options{})
		if err != nil || !ok {
			t.Fatalf("□ ≥ 1 must imply certainty")
		}
	}
}

func TestBagBoundsDifference(t *testing.T) {
	// Bag difference: R = {a,a}, S = {⊥}: #(a, R−S) is 1 if ⊥↦a else 2.
	db := relation.NewDatabase()
	r := relation.New("R", "x")
	r.AddMult(value.Consts("a"), 2)
	db.Add(r)
	s := relation.New("S", "x")
	s.Add(value.T(n(1)))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	box, _ := BoxMult(db, q, value.Consts("a"), Options{})
	dia, _ := DiamondMult(db, q, value.Consts("a"), Options{})
	if box != 1 || dia != 2 {
		t.Fatalf("□ = %d, ◇ = %d; want 1, 2", box, dia)
	}
}

func TestSpaceGuard(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b", "c", "d")
	// 24 nulls and four constants. R's four columns are never compared,
	// so they are four classes of one constant and six nulls each, every
	// null ranging over 1 + 7 values: (8^6)^4 = 2^72 worlds must overflow
	// the guard.
	for i := 0; i < 6; i++ {
		r.Add(value.T(n(uint64(4*i+1)), n(uint64(4*i+2)), n(uint64(4*i+3)), n(uint64(4*i+4))))
	}
	r.Add(value.Consts("a", "b", "c", "d"))
	db.Add(r)
	_, err := WithNulls(db, algebra.R("R"), Options{MaxWorlds: 1000})
	if err == nil {
		t.Fatalf("expected a MaxWorlds error")
	}
}

// TestSpaceOverflowIsRefused: 15 constants, 16 nulls and 17 fresh constants
// make a 32^16 = 2^80 space — R − S aligns R's and S's column, so all of
// them are one class — whose int product wraps to exactly zero. Read as an
// empty space it left every constant of R certain in R − S; under any
// MaxWorlds it must be refused instead.
func TestSpaceOverflowIsRefused(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	for i := 0; i < 15; i++ {
		r.Add(value.Consts(fmt.Sprintf("c%d", i)))
	}
	db.Add(r)
	s := relation.New("S", "a")
	for i := 1; i <= 16; i++ {
		s.Add(value.T(n(uint64(i))))
	}
	db.Add(s)
	got, err := WithNulls(db, algebra.Minus(algebra.R("R"), algebra.R("S")), Options{MaxWorlds: 1 << 62})
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxWorlds") {
		t.Fatalf("WithNulls = %v, %v; want an exceeds-MaxWorlds error", got, err)
	}
}

func TestCompleteDatabaseFastPath(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("x"))
	db.Add(r)
	cert := mustWithNulls(t, db, algebra.R("R"))
	if cert.Len() != 1 || !cert.Contains(value.Consts("x")) {
		t.Fatalf("on complete databases cert⊥ = Q(D): %v", cert)
	}
	inter, err := Intersection(db, algebra.R("R"), Options{})
	if err != nil || !inter.EqualSet(cert) {
		t.Fatalf("cert∩ must also equal Q(D): %v %v", inter, err)
	}
}

func TestQueryConstantsEnterSpace(t *testing.T) {
	// Q = σ_{a=2}(R) on R(⊥): the valuation ⊥↦2 only exists if the query
	// constant 2 is in the range; certainty must be refuted through it.
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.T(n(1)))
	db.Add(r)
	q := algebra.Sel(algebra.R("R"), algebra.CNeqC(0, c("2")))
	// ⊥ ≠ 2 is not certain (⊥ could be 2).
	cert := mustWithNulls(t, db, q)
	if cert.Len() != 0 {
		t.Fatalf("cert⊥ = %v, want ∅ (⊥ may be 2)", cert)
	}
}

func TestFreshConstantAvoidance(t *testing.T) {
	// A database that already contains the would-be fresh constant names
	// must not confuse the space construction.
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("⁑fresh0"))
	r.Add(value.T(n(1)))
	db.Add(r)
	space, err := NewSpace(db, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[value.Value]bool{}
	for _, v := range space.rngs[0] {
		if seen[v] {
			t.Fatalf("duplicate constant %v in range", v)
		}
		seen[v] = true
	}
	if space.Size() != len(space.rngs[0]) {
		t.Fatalf("one null: size must equal range size")
	}
}

// An oracle sizes its valuation space only when something is left to
// decide. On TPC-H at 2 % nulls the spaces of Q4, Q8 and Q11 exceed
// MaxWorlds, yet no candidate of their naive answers lies outside the
// frozen part: cert⊥ is the naive answer (empty for Q8), Bool and
// CertainTuple settle on a frozen tuple, and none of them is refused. Q1
// leaves candidates undecided and is refused with the size error.
func TestDecidedQueriesAreNotSized(t *testing.T) {
	db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.02, 0, 1)
	queries := map[string]algebra.Expr{}
	for _, nq := range append(tpch.Queries(), tpch.MultiJoinQueries()...) {
		queries[strings.SplitN(nq.Name, "-", 2)[0]] = nq.Q
	}
	for _, name := range []string{"Q1", "Q4", "Q8", "Q11"} {
		q := queries[name]
		_, sizeErr := NewSpaceForQuery(db, q, Options{})
		if sizeErr == nil {
			t.Fatalf("%s: space fits MaxWorlds; the test needs one that does not", name)
		}
		got, err := WithNulls(db, q, Options{})
		if name == "Q1" {
			if err == nil || err.Error() != sizeErr.Error() {
				t.Errorf("Q1: WithNulls error = %v, want %v", err, sizeErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: WithNulls: %v", name, err)
		}
		naive := plan.Naive(db, q)
		if !got.EqualSet(naive) {
			t.Fatalf("%s: cert⊥ has %d tuples, naive answer %d", name, got.Len(), naive.Len())
		}
		if name == "Q8" {
			continue // nothing frozen to settle Bool or CertainTuple on
		}
		if ok, err := Bool(db, algebra.Proj(q), Options{}); err != nil || !ok {
			t.Errorf("%s: Bool = %v, %v; want true", name, ok, err)
		}
		var frozen value.Tuple
		naive.Each(func(tu value.Tuple, _ int) {
			if frozen == nil && !tu.HasNull() {
				frozen = tu
			}
		})
		if frozen == nil {
			t.Fatalf("%s: naive answer has no null-free tuple", name)
		}
		if ok, err := CertainTuple(db, q, frozen, Options{}); err != nil || !ok {
			t.Errorf("%s: CertainTuple(%v) = %v, %v; want true", name, frozen, ok, err)
		}
	}
}
