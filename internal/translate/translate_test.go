package translate

import (
	"math/rand"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/gen"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

func c(s string) value.Value  { return value.Const(s) }
func n(id uint64) value.Value { return value.Null(id) }

// The running example: R = {1}, S = {⊥}. cert(R−S) = ∅; naive returns {1}.
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

func TestFig2bDifferenceExample(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	plus, poss, err := Fig2b(q)
	if err != nil {
		t.Fatal(err)
	}
	// Q⁺ = R ⋉⇑ S: 1 unifies with ⊥, so nothing is certain.
	if got := plan.Naive(db, plus); got.Len() != 0 {
		t.Fatalf("Q+ = %v, want ∅", got)
	}
	// Q? = R − S: 1 remains possible.
	if got := plan.Naive(db, poss); !got.Contains(value.Consts("1")) {
		t.Fatalf("Q? = %v, want {1}", got)
	}
}

func TestFig2aDifferenceExample(t *testing.T) {
	db := exampleDB()
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	qt, qf, err := Fig2a(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Naive(db, qt); got.Len() != 0 {
		t.Fatalf("Qt = %v, want ∅", got)
	}
	// Qf: tuples certainly NOT in R−S. The constant 1 is not among them
	// (⊥ might be ≠1); ⊥ itself is certainly-in-S hence certainly-out? No:
	// ⊥ ∈ R−S iff v(⊥) ∈ R − S(v) — v(⊥)=1 gives 1 ∈ {1}−{1} = ∅; so ⊥ is
	// certainly out only if for NO v, v(⊥) ∈ (R−S)(v). v(⊥)=1: (R−S)={},
	// other v: (R−S)={1}, v(⊥)≠1. So ⊥ certainly fails; 1 does not.
	qfRes := plan.Naive(db, qf)
	if qfRes.Contains(value.Consts("1")) {
		t.Fatalf("Qf must not contain 1: %v", qfRes)
	}
}

func TestFig2bTautologySelection(t *testing.T) {
	// σ(a=o2 ∨ a≠o2)(P) on P = {o1, ⊥}: cert⊥ = {o1, ⊥} — the introduction's
	// third example. Q⁺ must find o1 and the θ* guard must drop ⊥ from the
	// disequality disjunct but the equality side keeps… actually ⊥ is
	// certain (every v(⊥) is either o2 or not), yet Q⁺ cannot see it:
	// approximation, not exactness.
	db := relation.NewDatabase()
	p := relation.New("P", "oid")
	p.Add(value.Consts("o1"))
	p.Add(value.T(n(1)))
	db.Add(p)
	q := algebra.Sel(algebra.R("P"), algebra.COr(
		algebra.CEqC(0, c("o2")),
		algebra.CNeqC(0, c("o2")),
	))
	cert, err := certain.WithNulls(db, q, certain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Len() != 2 {
		t.Fatalf("cert⊥ = %v, want {o1, ⊥1}", cert)
	}
	plus, poss, err := Fig2b(q)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Naive(db, plus)
	if !got.Contains(value.Consts("o1")) {
		t.Fatalf("Q+ misses o1: %v", got)
	}
	if !got.SubsetOfSet(cert) {
		t.Fatalf("Q+ = %v must be a subset of cert⊥ = %v", got, cert)
	}
	// Q? keeps both.
	if qposs := plan.Naive(db, poss); qposs.Len() != 2 {
		t.Fatalf("Q? = %v, want 2 tuples", qposs)
	}
}

func TestIntersectionNormalized(t *testing.T) {
	db := exampleDB()
	q := algebra.Inter(algebra.R("R"), algebra.R("S"))
	plus, poss, err := Fig2b(q)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is certainly in R ∩ S (⊥ may differ from 1)…
	if got := plan.Naive(db, plus); got.Len() != 0 {
		t.Fatalf("(R∩S)+ = %v, want ∅", got)
	}
	// …but 1 is possibly in it. (Q? of the normalized difference keeps 1.)
	if got := plan.Naive(db, poss); !got.Contains(value.Consts("1")) {
		t.Fatalf("(R∩S)? = %v, want {1}", got)
	}
	if _, _, err := Fig2a(q, db); err != nil {
		t.Fatalf("Fig2a on intersection: %v", err)
	}
}

func TestOutsideFragmentErrors(t *testing.T) {
	db := gen.Schema()
	bad := []algebra.Expr{
		algebra.Div(algebra.R("R"), algebra.R("S")),
		algebra.AntiJoin(algebra.R("S"), algebra.R("S")),
		algebra.DomK(1),
		algebra.Sel(algebra.R("S"), algebra.CIn(algebra.R("S"), 0)),
	}
	for _, q := range bad {
		if _, _, err := Fig2b(q); err == nil {
			t.Errorf("Fig2b(%s) should fail", q)
		}
		if _, _, err := Fig2a(q, db); err == nil {
			t.Errorf("Fig2a(%s) should fail", q)
		}
	}
}

func TestExplicitNotIsNormalized(t *testing.T) {
	db := exampleDB()
	q := algebra.Sel(algebra.R("S"), algebra.CNot(algebra.CEqC(0, c("1"))))
	plus, _, err := Fig2b(q)
	if err != nil {
		t.Fatal(err)
	}
	// ¬(a=1) normalizes to a≠1, whose θ* guard excludes the null.
	if got := plan.Naive(db, plus); got.Len() != 0 {
		t.Fatalf("Q+ = %v, want ∅ (⊥ might be 1)", got)
	}
}

// Theorem 4.7 as a property test: for random full-RA queries and random
// incomplete databases, Q⁺(D) ⊆ cert⊥(Q,D) and, for every valuation v of
// the oracle space, v(Q⁺(D)) ⊆ Q(v(D)) ⊆ v(Q?(D)).
func TestTheorem47Property(t *testing.T) {
	r := rand.New(rand.NewSource(407))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 120; trial++ {
		db := gen.DB(r, cfg)
		arity := 1 + r.Intn(2)
		q := gen.Query(r, qcfg, arity)
		plus, poss, err := Fig2b(q)
		if err != nil {
			t.Fatal(err)
		}
		plusRes := plan.Naive(db, plus)
		possRes := plan.Naive(db, poss)
		cert, err := certain.WithNulls(db, q, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !plusRes.SubsetOfSet(cert) {
			t.Fatalf("trial %d: Q+ ⊄ cert⊥\nQ = %s\nD = %v\nQ+ = %v\ncert = %v",
				trial, q, db, plusRes, cert)
		}
		space, err := certain.NewSpace(db, algebra.ConstsOf(q), certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		space.Each(func(v value.Valuation) bool {
			world := db.Apply(v)
			res := plan.Eval(world, q, algebra.ModeNaive)
			// v(Q+(D)) ⊆ Q(v(D))
			ok := true
			plusRes.Each(func(tp value.Tuple, _ int) {
				if !res.Contains(v.Apply(tp)) {
					t.Errorf("trial %d: v(Q+) ⊄ Q(v(D)) at v=%v tuple %v\nQ = %s\nD = %v",
						trial, v, tp, q, db)
					ok = false
				}
			})
			// Q(v(D)) ⊆ v(Q?(D))
			image := relation.NewArity("img", possRes.Arity())
			possRes.Each(func(tp value.Tuple, _ int) { image.Add(v.Apply(tp)) })
			res.Each(func(tp value.Tuple, _ int) {
				if !image.Contains(tp) {
					t.Errorf("trial %d: Q(v(D)) ⊄ v(Q?) at v=%v tuple %v\nQ = %s\nD = %v",
						trial, v, tp, q, db)
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

// Theorem 4.6 as a property test: Qᵗ(D) ⊆ cert⊥(Q,D), Qᶠ(D) ⊆ certainly-
// false, and Qᵗ(D) = Q(D) on complete databases.
func TestTheorem46Property(t *testing.T) {
	r := rand.New(rand.NewSource(406))
	cfg := gen.DefaultConfig()
	cfg.MaxTuples = 3 // Dom^k blow-up: keep the databases tiny
	qcfg := gen.DefaultQueryConfig()
	qcfg.MaxDepth = 2
	for trial := 0; trial < 60; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1)
		qt, qf, err := Fig2a(q, db)
		if err != nil {
			t.Fatal(err)
		}
		qtRes := plan.Naive(db, qt)
		qfRes := plan.Naive(db, qf)
		cert, err := certain.WithNulls(db, q, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !qtRes.SubsetOfSet(cert) {
			t.Fatalf("trial %d: Qt ⊄ cert⊥\nQ = %s\nD = %v\nQt = %v\ncert = %v",
				trial, q, db, qtRes, cert)
		}
		// Certainly false: for every valuation, v(t) ∉ Q(v(D)).
		space, err := certain.NewSpace(db, algebra.ConstsOf(q), certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		space.Each(func(v value.Valuation) bool {
			res := plan.Eval(db.Apply(v), q, algebra.ModeNaive)
			bad := false
			qfRes.Each(func(tp value.Tuple, _ int) {
				if res.Contains(v.Apply(tp)) {
					t.Errorf("trial %d: Qf tuple %v is in Q(v(D)) for v=%v\nQ = %s\nD = %v",
						trial, tp, v, q, db)
					bad = true
				}
			})
			return !bad
		})
		if t.Failed() {
			return
		}
	}
}

func TestQtEqualsQOnCompleteDatabases(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	cfg := gen.DefaultConfig()
	cfg.NullRate = 0 // complete databases
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 80; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1)
		qt, _, err := Fig2a(q, db)
		if err != nil {
			t.Fatal(err)
		}
		plus, poss, err := Fig2b(q)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Naive(db, q)
		if got := plan.Naive(db, qt); !got.EqualSet(want) {
			t.Fatalf("trial %d: Qt(D) = %v ≠ Q(D) = %v on complete D\nQ = %s", trial, got, want, q)
		}
		if got := plan.Naive(db, plus); !got.EqualSet(want) {
			t.Fatalf("trial %d: Q+(D) ≠ Q(D) on complete D", trial)
		}
		if got := plan.Naive(db, poss); !got.EqualSet(want) {
			t.Fatalf("trial %d: Q?(D) ≠ Q(D) on complete D", trial)
		}
	}
}

// Theorem 4.8: under bag semantics, #(ā, Q⁺(D)) ≤ □Q(D, ā) ≤ #(ā, Q?(D)).
func TestTheorem48BagBounds(t *testing.T) {
	r := rand.New(rand.NewSource(408))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 40; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1)
		plus, poss, err := Fig2b(q)
		if err != nil {
			t.Fatal(err)
		}
		plusBag := plan.EvalBag(db, plus, algebra.ModeNaive)
		possBag := plan.EvalBag(db, poss, algebra.ModeNaive)
		// Check the sandwich on every tuple that appears on either side.
		var seen value.TupleMap[value.Tuple]
		plusBag.Each(func(tp value.Tuple, _ int) { seen.Put(tp, tp) })
		possBag.Each(func(tp value.Tuple, _ int) { seen.Put(tp, tp) })
		var tuples []value.Tuple
		seen.Each(func(_ value.Tuple, tp value.Tuple) { tuples = append(tuples, tp) })
		for _, tp := range tuples {
			box, err := certain.BoxMult(db, q, tp, certain.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plusBag.Mult(tp) > box {
				t.Fatalf("trial %d: #(%v,Q+)=%d > □=%d\nQ = %s\nD = %v",
					trial, tp, plusBag.Mult(tp), box, q, db)
			}
			if box > possBag.Mult(tp) {
				t.Fatalf("trial %d: □=%d > #(%v,Q?)=%d\nQ = %s\nD = %v",
					trial, box, tp, possBag.Mult(tp), q, db)
			}
		}
	}
}
