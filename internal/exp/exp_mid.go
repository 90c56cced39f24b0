package exp

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/ctable"
	"incdb/internal/plan"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/translate"
	"incdb/internal/value"
)

// timeIt evaluates f reps times and returns the minimum duration.
func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// E3TPCHOverhead reproduces the shape of [37]'s TPC-H experiment: the Q⁺
// rewriting's runtime overhead over the original query, on the same
// engine, plus answer counts against Q?.
func E3TPCHOverhead() string {
	db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.05, 0, 21)
	var rows [][]string
	for _, nq := range tpch.Queries() {
		plus, poss, err := translate.Fig2b(nq.Q)
		if err != nil {
			return "translate: " + err.Error()
		}
		const reps = 5
		var orig, rewr *relation.Relation
		origT := timeIt(reps, func() { orig = plan.SQL(db, nq.Q) })
		plusT := timeIt(reps, func() { rewr = plan.Naive(db, plus) })
		possRes := plan.Naive(db, poss)
		overhead := float64(plusT-origT) / float64(origT) * 100
		rows = append(rows, []string{
			nq.Name,
			fmt.Sprintf("%d", orig.Len()),
			fmt.Sprintf("%d", rewr.Len()),
			fmt.Sprintf("%d", possRes.Len()),
			origT.Round(time.Microsecond).String(),
			plusT.Round(time.Microsecond).String(),
			fmt.Sprintf("%+.1f%%", overhead),
		})
	}
	out := table([]string{"query", "|SQL|", "|Q+|", "|Q?|", "orig time", "Q+ time", "overhead"}, rows)
	return out + fmt.Sprintf("\nDatabase: %d tuples, %d nulls (5%% dirty rate).\n", tpch.TotalTuples(db), len(db.NullIDs())) +
		"Paper [37]: 1-4% overhead on most TPC-H queries, worse where the\n" +
		"rewriting introduces disjunctions/anti-joins; the difference-heavy\n" +
		"queries (Q1/Q2/Q6/Q8) pay for ⋉⇑, the rest stay near the original.\n"
}

// E4BagBounds verifies Theorem 4.8 on the bag engine and reports the
// multiplicity sandwich on the running example.
func E4BagBounds() string {
	db := relation.NewDatabase()
	r := relation.New("R", "x")
	r.AddMult(value.Consts("a"), 2)
	r.Add(value.Consts("b"))
	db.Add(r)
	s := relation.New("S", "x")
	s.Add(value.T(db.FreshNull()))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	plus, poss, _ := translate.Fig2b(q)
	plusBag := plan.EvalBag(db, plus, algebra.ModeNaive)
	possBag := plan.EvalBag(db, poss, algebra.ModeNaive)
	var rows [][]string
	for _, tup := range []value.Tuple{value.Consts("a"), value.Consts("b")} {
		box, err := certain.BoxMult(db, q, tup, certain.Options{})
		if err != nil {
			return err.Error()
		}
		dia, err := certain.DiamondMult(db, q, tup, certain.Options{})
		if err != nil {
			return err.Error()
		}
		rows = append(rows, []string{
			tup.String(),
			fmt.Sprintf("%d", plusBag.Mult(tup)),
			fmt.Sprintf("%d", box),
			fmt.Sprintf("%d", dia),
			fmt.Sprintf("%d", possBag.Mult(tup)),
		})
	}
	out := table([]string{"tuple", "#(Q+)", "□Q", "◇Q", "#(Q?)"}, rows)
	return "R = {a,a,b} (bag), S = {⊥}, Q = R − S:\n" + out +
		"\nTheorem 4.8: #(ā,Q+) ≤ □Q ≤ #(ā,Q?) — and ◇Q is intractable for\n" +
		"the Figure 2(a) extension, which is why (Q+,Q?) is the bag scheme.\n"
}

// E5CTableStrategies compares the four strategies of [36] on the
// Figure 1 tautology and on TPC-H-like queries: answer counts and times,
// with the Theorem 4.9 identities checked.
func E5CTableStrategies() string {
	var b strings.Builder

	// Part 1: tautology query where only aware is exact.
	db := relation.NewDatabase()
	p := relation.New("P", "cid", "oid")
	p.Add(value.Consts("c1", "o1"))
	p.Add(value.T(value.Const("c2"), db.FreshNull()))
	db.Add(p)
	q := algebra.Proj(algebra.Sel(algebra.R("P"), algebra.COr(
		algebra.CEqC(1, value.Const("o2")),
		algebra.CNeqC(1, value.Const("o2")),
	)), 0)
	cert, _ := certain.WithNulls(db, q, certain.Options{})
	var rows [][]string
	for _, s := range []ctable.Strategy{ctable.Eager, ctable.SemiEager, ctable.Lazy, ctable.Aware} {
		tr, err := ctable.EvalTrue(db, q, s)
		if err != nil {
			return err.Error()
		}
		ps, _ := ctable.EvalPossible(db, q, s)
		rows = append(rows, []string{s.String(), renderSet(tr), renderSet(ps)})
	}
	b.WriteString("σ(oid='o2' ∨ oid≠'o2')(Payments), cert⊥ = " + renderSet(cert) + ":\n")
	b.WriteString(table([]string{"strategy", "Eval_t", "Eval_p"}, rows))

	// Part 2: Theorem 4.9 identity Evalᵉ = (Q⁺, Q?) on TPC-H queries, with
	// timings.
	tdb := tpch.Dirty(tpch.Generate(tpch.SmallConfig()), 0.1, 0, 13)
	var rows2 [][]string
	for _, nq := range tpch.Queries() {
		plus, poss, err := translate.Fig2b(nq.Q)
		if err != nil {
			return err.Error()
		}
		wantPlus := plan.Naive(tdb, plus)
		wantPoss := plan.Naive(tdb, poss)
		var times []string
		identity := "ok"
		for _, s := range []ctable.Strategy{ctable.Eager, ctable.SemiEager, ctable.Lazy, ctable.Aware} {
			var tr *relation.Relation
			d := timeIt(3, func() { tr, _ = ctable.EvalTrue(tdb, nq.Q, s) })
			times = append(times, d.Round(time.Microsecond).String())
			if s == ctable.Eager {
				ps, _ := ctable.EvalPossible(tdb, nq.Q, s)
				if !tr.EqualSet(wantPlus) || !ps.EqualSet(wantPoss) {
					identity = "VIOLATED"
				}
			}
		}
		rows2 = append(rows2, append([]string{nq.Name, identity}, times...))
	}
	b.WriteString("\nTPC-H-like instance (10% nulls): Evalᵉ = (Q+,Q?) identity and per-strategy times:\n")
	b.WriteString(table([]string{"query", "Evalᵉ=(Q+,Q?)", "eager", "semi-eager", "lazy", "aware"}, rows2))
	b.WriteString("\nPaper: all four are polynomial with correctness guarantees\n" +
		"(Theorem 4.9); eager coincides with the Figure 2(b) scheme; the later\n" +
		"strategies trade time for better approximations (aware certifies the\n" +
		"tautology that the others miss).\n")
	return b.String()
}

// E6MuConvergence tabulates µᵏ for growing k against the asymptotic µ
// (Theorem 4.10's 0–1 law).
func E6MuConvergence() string {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(db.FreshNull()))
	s.Add(value.T(db.FreshNull()))
	db.Add(s)
	cases := []struct {
		name  string
		q     algebra.Expr
		tuple value.Tuple
	}{
		{"1 ∈ R−S", algebra.Minus(algebra.R("R"), algebra.R("S")), value.Consts("1")},
		{"1 ∈ R∩S", algebra.Inter(algebra.R("R"), algebra.R("S")), value.Consts("1")},
	}
	var rows [][]string
	for _, c := range cases {
		row := []string{c.name}
		for _, k := range []int{2, 4, 8, 16, 32} {
			muk, err := prob.MuK(db, c.q, nil, c.tuple, k, certain.Options{})
			if err != nil {
				return err.Error()
			}
			f, _ := muk.Float64()
			row = append(row, fmt.Sprintf("%.4f", f))
		}
		mu, err := prob.Mu(db, c.q, nil, c.tuple, certain.Options{})
		if err != nil {
			return err.Error()
		}
		row = append(row, mu.RatString())
		naive := plan.Naive(db, c.q).Contains(c.tuple)
		row = append(row, fmt.Sprintf("%v", naive))
		rows = append(rows, row)
	}
	out := table([]string{"event", "µ2", "µ4", "µ8", "µ16", "µ32", "µ(limit)", "∈ naive?"}, rows)
	return "R = {1}, S = {⊥1, ⊥2}:\n" + out +
		"\nTheorem 4.10: µ = 1 exactly for naive-evaluation answers, 0 otherwise\n" +
		"— a 0–1 law; µᵏ visibly converges to the limit.\n"
}

// e7Values holds what E7 computes: µ of the 1/2 example with and without Σ,
// µ(Q|Σ) for each target p/r, and the FD example's µ under Σ and on the
// chased database.
type e7Values struct {
	mu, mu0, muFD, muChase *big.Rat
	targets                [][2]int
	realized               []*big.Rat
}

// e7Compute runs E7's three parts; err is the first error of a µ.
func e7Compute() (v e7Values, err error) {
	mu := func(db *relation.Database, q algebra.Expr, sigma constraint.Set, a value.Tuple) *big.Rat {
		m, e := prob.Mu(db, q, sigma, a, certain.Options{})
		if err == nil {
			err = e
		}
		return m
	}
	// Part 1: the 1/2 example.
	db := relation.NewDatabase()
	tt := relation.New("T", "a")
	tt.Add(value.Consts("1"))
	tt.Add(value.Consts("2"))
	db.Add(tt)
	s := relation.New("S", "a")
	s.Add(value.T(db.FreshNull()))
	db.Add(s)
	sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "T", Cols2: []int{0}}}
	q := algebra.Minus(algebra.R("T"), algebra.R("S"))
	v.mu, v.mu0 = mu(db, q, sigma, value.Consts("1")), mu(db, q, nil, value.Consts("1"))

	// Part 2: realizing p/r with T = {1..r}, P = {1..p}, Q = ∃x S(x)∧P(x).
	v.targets = [][2]int{{1, 3}, {2, 3}, {3, 5}, {2, 7}, {5, 8}}
	for _, pr := range v.targets {
		p, r := pr[0], pr[1]
		db2 := relation.NewDatabase()
		t2 := relation.New("T", "a")
		p2 := relation.New("P", "a")
		for i := 1; i <= r; i++ {
			t2.Add(value.T(value.Int(i)))
			if i <= p {
				p2.Add(value.T(value.Int(i)))
			}
		}
		db2.Add(t2)
		db2.Add(p2)
		s2 := relation.New("S", "a")
		s2.Add(value.T(db2.FreshNull()))
		db2.Add(s2)
		sig := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "T", Cols2: []int{0}}}
		bq := algebra.Proj(algebra.Inter(algebra.R("S"), algebra.R("P")))
		v.realized = append(v.realized, mu(db2, bq, sig, value.Tuple{}))
	}

	// Part 3: FDs reduce to the chase.
	db3 := relation.NewDatabase()
	r3 := relation.New("R", "k", "v")
	r3.Add(value.Consts("1", "a"))
	r3.Add(value.T(value.Const("1"), db3.FreshNull()))
	db3.Add(r3)
	fd := constraint.Set{constraint.FD{Rel: "R", LHS: []int{0}, RHS: []int{1}}}
	fds, _ := fd.FDs()
	chased, _ := constraint.Chase(db3, fds)
	q3 := algebra.Proj(algebra.R("R"), 1)
	v.muFD, v.muChase = mu(db3, q3, fd, value.Consts("a")), mu(chased, q3, nil, value.Consts("a"))
	return v, err
}

// E7ConditionalMu reproduces Theorem 4.11: the S⊆T example with value 1/2,
// a family realizing arbitrary rationals, and the FD-chase identity.
func E7ConditionalMu() string {
	v, err := e7Compute()
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "T = {1,2}, S = {⊥}, Σ: S ⊆ T, Q = T−S, ā = (1):\n")
	fmt.Fprintf(&b, "  µ(Q, D, ā)      = %s   (unconditional: ⊥ almost surely misses 1)\n", v.mu0.RatString())
	fmt.Fprintf(&b, "  µ(Q|Σ, D, ā)    = %s   (paper: exactly 1/2)\n\n", v.mu.RatString())
	var rows [][]string
	for i, pr := range v.targets {
		got := v.realized[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d/%d", pr[0], pr[1]),
			got.RatString(),
			fmt.Sprintf("%v", got.Cmp(big.NewRat(int64(pr[0]), int64(pr[1]))) == 0),
		})
	}
	b.WriteString("Realizing arbitrary rationals (Theorem 4.11, second part):\n")
	b.WriteString(table([]string{"target p/r", "µ(Q|Σ)", "match"}, rows))
	fmt.Fprintf(&b, "\nFDs via the chase: R = {(1,a),(1,⊥)}, Σ: k→v.\n")
	fmt.Fprintf(&b, "  µ(a ∈ πv R | Σ, D) = %s;  µ(a ∈ πv R, D_Σ) = %s  (must agree; both 1 since the chase binds ⊥ = a)\n",
		v.muFD.RatString(), v.muChase.RatString())
	return b.String()
}
