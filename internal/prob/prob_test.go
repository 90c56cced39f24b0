package prob

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/gen"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

func n(id uint64) value.Value { return value.Null(id) }

func rat(p, q int64) *big.Rat { return big.NewRat(p, q) }

// The running example: R = {1}, S = {⊥}; naive eval of R−S gives {1} and
// indeed µ = 1: the chance of ⊥ hitting 1 vanishes.
func TestDifferenceAlmostCertainlyTrue(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	mu, err := Mu(db, q, nil, value.Consts("1"), certain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mu.Cmp(rat(1, 1)) != 0 {
		t.Fatalf("µ = %v, want 1", mu)
	}
	// µᵏ = (k−1)/k: exactly one of k choices for ⊥ kills the answer.
	for _, k := range []int{2, 3, 5, 10} {
		muk, err := MuK(db, q, nil, value.Consts("1"), k, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if muk.Cmp(rat(int64(k-1), int64(k))) != 0 {
			t.Fatalf("µ%d = %v, want %d/%d", k, muk, k-1, k)
		}
	}
}

// Theorem 4.10 as a property test: µ(Q, D, ā) = 1 iff ā ∈ Qnaïve(D), and
// µ = 0 otherwise — the 0–1 law.
func TestTheorem410ZeroOneLaw(t *testing.T) {
	r := rand.New(rand.NewSource(410))
	cfg := gen.DefaultConfig()
	cfg.MaxTuples = 3
	qcfg := gen.DefaultQueryConfig()
	qcfg.MaxDepth = 2
	for trial := 0; trial < 80; trial++ {
		db := gen.DB(r, cfg)
		if len(db.NullIDs()) > 4 {
			continue
		}
		q := gen.Query(r, qcfg, 1)
		naive := plan.Naive(db, q)
		// Check over candidate tuples from the active domain.
		for _, v := range db.ActiveDomain() {
			tuple := value.T(v)
			mu, err := Mu(db, q, nil, tuple, certain.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inNaive := naive.Contains(tuple)
			switch {
			case inNaive && mu.Cmp(rat(1, 1)) != 0:
				t.Fatalf("trial %d: %v ∈ naive but µ = %v\nQ = %s\nD = %v", trial, tuple, mu, q, db)
			case !inNaive && mu.Sign() != 0:
				t.Fatalf("trial %d: %v ∉ naive but µ = %v\nQ = %s\nD = %v", trial, tuple, mu, q, db)
			}
		}
	}
}

// µᵏ must converge to µ: for large k the gap |µᵏ − µ| shrinks.
func TestMuKConvergesToMu(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cfg := gen.DefaultConfig()
	cfg.MaxTuples = 2
	qcfg := gen.DefaultQueryConfig()
	qcfg.MaxDepth = 2
	for trial := 0; trial < 20; trial++ {
		db := gen.DB(r, cfg)
		ids := db.NullIDs()
		if len(ids) == 0 || len(ids) > 3 {
			continue
		}
		q := gen.Query(r, qcfg, 1)
		adom := db.ActiveDomain()
		tuple := value.T(adom[r.Intn(len(adom))])
		mu, err := Mu(db, q, nil, tuple, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rel := len(certain.Range(db, append(algebra.ConstsOf(q), tuple...), 0))
		prevGap := new(big.Rat)
		first := true
		for _, k := range []int{rel + 2, rel + 6, rel + 12} {
			muk, err := MuK(db, q, nil, tuple, k, certain.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gap := new(big.Rat).Sub(muk, mu)
			gap.Abs(gap)
			if !first && gap.Cmp(prevGap) > 0 {
				t.Fatalf("trial %d: gap grew from %v to %v at k=%d\nQ = %s\nD = %v",
					trial, prevGap, gap, k, q, db)
			}
			prevGap, first = gap, false
		}
	}
}

// The Section 4.3 inclusion-constraint example: T = {1,2}, S = {⊥} with
// Σ: S ⊆ T. The answer {1} to T−S has conditional probability exactly 1/2.
func TestConditionalHalf(t *testing.T) {
	db := relation.NewDatabase()
	tt := relation.New("T", "a")
	tt.Add(value.Consts("1"))
	tt.Add(value.Consts("2"))
	db.Add(tt)
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)
	sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "T", Cols2: []int{0}}}
	q := algebra.Minus(algebra.R("T"), algebra.R("S"))
	mu, err := Mu(db, q, sigma, value.Consts("1"), certain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mu.Cmp(rat(1, 2)) != 0 {
		t.Fatalf("µ(1 ∈ T−S | S⊆T) = %v, want 1/2", mu)
	}
	// Without the constraint, µ = 1 (⊥ almost surely misses 1).
	mu0, err := Mu(db, q, nil, value.Consts("1"), certain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mu0.Cmp(rat(1, 1)) != 0 {
		t.Fatalf("unconditional µ = %v, want 1", mu0)
	}
}

// Theorem 4.11's second part: every rational p/r arises. Realize p/r with
// T = {1..r}, P = {1..p}, S = {⊥}, Σ: S ⊆ T, Q = ∃x (S(x) ∧ P(x)).
func TestConditionalRealizesRationals(t *testing.T) {
	for _, pr := range [][2]int{{1, 3}, {2, 3}, {3, 5}, {1, 4}, {5, 7}} {
		p, r := pr[0], pr[1]
		db := relation.NewDatabase()
		tt := relation.New("T", "a")
		pp := relation.New("P", "a")
		for i := 1; i <= r; i++ {
			tt.Add(value.T(value.Int(i)))
			if i <= p {
				pp.Add(value.T(value.Int(i)))
			}
		}
		db.Add(tt)
		db.Add(pp)
		s := relation.New("S", "a")
		s.Add(value.T(db.FreshNull()))
		db.Add(s)
		sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "T", Cols2: []int{0}}}
		// Boolean query ∃x (S(x) ∧ P(x)) as π∅(S ∩ P).
		q := algebra.Proj(algebra.Inter(algebra.R("S"), algebra.R("P")))
		mu, err := Mu(db, q, sigma, value.Tuple{}, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if mu.Cmp(rat(int64(p), int64(r))) != 0 {
			t.Fatalf("µ = %v, want %d/%d", mu, p, r)
		}
	}
}

// For FDs, µ(Q|Σ, D, ā) = µ(Q, D_Σ, ā) where D_Σ is the chase (§4.3).
func TestFDConditionalEqualsChased(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "k", "v")
	r.Add(value.T(value.Const("1"), n(1)))
	r.Add(value.Consts("1", "a"))
	r.Add(value.T(value.Const("2"), n(2)))
	db.Add(r)
	sigma := constraint.Set{constraint.FD{Rel: "R", LHS: []int{0}, RHS: []int{1}}}
	fds, _ := sigma.FDs()
	chased, ok := constraint.Chase(db, fds)
	if !ok {
		t.Fatalf("chase must succeed")
	}
	q := algebra.Proj(algebra.R("R"), 1)
	for _, tuple := range []value.Tuple{value.Consts("a"), value.T(n(2)), value.Consts("zz")} {
		muCond, err := Mu(db, q, sigma, tuple, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		muChase, err := Mu(chased, q, nil, tuple, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if muCond.Cmp(muChase) != 0 {
			t.Fatalf("tuple %v: µ(Q|Σ,D) = %v but µ(Q,D_Σ) = %v", tuple, muCond, muChase)
		}
	}
}

// Conditional µ over random instances must match the finite-k counting for
// growing k (the pattern computation agrees with brute force).
func TestMuMatchesMuKAsymptotics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := gen.DefaultConfig()
	cfg.MaxTuples = 2
	cfg.NullPool = 2
	qcfg := gen.DefaultQueryConfig()
	qcfg.MaxDepth = 1
	sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "R", Cols2: []int{0}}}
	for trial := 0; trial < 25; trial++ {
		db := gen.DB(r, cfg)
		ids := db.NullIDs()
		if len(ids) == 0 || len(ids) > 3 {
			continue
		}
		q := gen.Query(r, qcfg, 1)
		adom := db.ActiveDomain()
		tuple := value.T(adom[r.Intn(len(adom))])
		mu, err := Mu(db, q, sigma, tuple, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rel := len(certain.Range(db, append(algebra.ConstsOf(q), tuple...), 0))
		// µᵏ − µ must be O(1/k): check the gap at two growing k values.
		k1, k2 := rel+8, rel+16
		mu1, err := MuK(db, q, sigma, tuple, k1, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mu2, err := MuK(db, q, sigma, tuple, k2, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g1 := new(big.Rat).Sub(mu1, mu)
		g1.Abs(g1)
		g2 := new(big.Rat).Sub(mu2, mu)
		g2.Abs(g2)
		if g2.Cmp(g1) > 0 {
			t.Fatalf("trial %d: |µᵏ−µ| grew: %v at k=%d, %v at k=%d\nQ = %s\nD = %v",
				trial, g1, k1, g2, k2, q, db)
		}
		// And the k² gap must be small in absolute terms: < 1/2 generously.
		if g2.Cmp(rat(1, 2)) > 0 {
			t.Fatalf("trial %d: µᵏ far from µ: %v vs %v", trial, mu2, mu)
		}
	}
}

func TestSuppCount(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	sat, total, err := SuppCount(db, q, nil, value.Consts("1"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 || sat != 3 {
		t.Fatalf("SuppCount = %d/%d, want 3/4", sat, total)
	}
}

func TestGuards(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	for i := 0; i < MaxNulls+1; i++ {
		r.Add(value.T(value.Null(uint64(i + 1))))
	}
	db.Add(r)
	if _, err := Mu(db, algebra.R("R"), nil, value.Consts("1"), certain.Options{}); err == nil {
		t.Fatalf("expected MaxNulls guard")
	}
	// k below |R| is rejected.
	db2 := relation.NewDatabase()
	r2 := relation.New("R", "a")
	r2.Add(value.Consts("1"))
	r2.Add(value.Consts("2"))
	r2.Add(value.T(n(1)))
	db2.Add(r2)
	if _, err := MuK(db2, algebra.R("R"), nil, value.Consts("1"), 1, certain.Options{}); err == nil {
		t.Fatalf("expected k < |R| error")
	}
}

// An unsatisfiable constraint set yields µ = 0 by convention.
func TestUnsatisfiableSigma(t *testing.T) {
	db := relation.NewDatabase()
	s := relation.New("S", "a")
	s.Add(value.T(n(1)))
	db.Add(s)
	// S ⊆ E where E is empty: no valuation satisfies it.
	db.Add(relation.New("E", "a"))
	sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "E", Cols2: []int{0}}}
	mu, err := Mu(db, algebra.R("S"), sigma, value.T(n(1)), certain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mu.Sign() != 0 {
		t.Fatalf("µ = %v, want 0 by convention", mu)
	}
}

// A cancelled Ctx stops µ's pattern walk and µᵏ's world loop: both return
// the context's error, never the partial count — also on a null-free
// database, whose walk is a single leaf that never polls.
func TestMuCancelled(t *testing.T) {
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	tuple := value.Consts("1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, nulls := range []int{0, 3} {
		db := probDB(nulls)
		if mu, err := Mu(db, q, nil, tuple, certain.Options{}); err != nil || mu == nil {
			t.Fatalf("%d nulls: uncancelled Mu = %v, %v", nulls, mu, err)
		}
		if mu, err := Mu(db, q, nil, tuple, certain.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%d nulls: Mu = %v, %v; want context.Canceled", nulls, mu, err)
		}
		for _, workers := range []int{1, 2} {
			opts := certain.Options{Ctx: ctx, Workers: workers}
			if mu, err := MuK(db, q, nil, tuple, 4, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%d nulls, workers=%d: MuK = %v, %v; want context.Canceled", nulls, workers, mu, err)
			}
		}
	}
}
