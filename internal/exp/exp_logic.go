package exp

import (
	"fmt"
	"strings"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/fo"
	"incdb/internal/gen"
	"incdb/internal/logic"
	"incdb/internal/plan"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/value"

	"math/rand"
)

// E8UnifSemantics prints Figure 3, verifies the unif semantics'
// correctness guarantees on the Section 5.1 examples, and reproduces the
// R−(S−T) SQL anomaly: an answer that is almost certainly false.
func E8UnifSemantics() string {
	var b strings.Builder
	k := logic.Kleene()
	b.WriteString("Figure 3 — Kleene's three-valued logic:\n")
	b.WriteString(k.TruthTable("and"))
	b.WriteString("\n")
	b.WriteString(k.TruthTable("or"))
	b.WriteString("\n")
	b.WriteString(k.TruthTable("not"))
	b.WriteString("\n")

	// The R(1,⊥) example: bool semantics has no correctness guarantees,
	// unif does.
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(value.Const("1"), db.FreshNull()))
	db.Add(r)
	atom := fo.Atom{Rel: "R", Args: []fo.Term{fo.C("1"), fo.C("1")}}
	fmt.Fprintf(&b, "D = {R(1,⊥)}; φ = R(1,1):\n")
	fmt.Fprintf(&b, "  ⟦φ⟧bool = %v   (claims certainly false — wrong: ⊥ may be 1)\n",
		fo.Eval(db, atom, fo.Bool(), fo.Env{}))
	fmt.Fprintf(&b, "  ⟦φ⟧unif = %v   (correct: unknown)\n\n",
		fo.Eval(db, atom, fo.UnifSem(), fo.Env{}))

	// R − (S − T): SQL returns an almost certainly false answer.
	db2 := relation.NewDatabase()
	rr := relation.New("R", "a")
	rr.Add(value.Consts("1"))
	db2.Add(rr)
	ss := relation.New("S", "a")
	ss.Add(value.Consts("1"))
	db2.Add(ss)
	tt := relation.New("T", "a")
	tt.Add(value.T(db2.FreshNull()))
	db2.Add(tt)
	q := algebra.Minus(algebra.R("R"), algebra.Minus(algebra.R("S"), algebra.R("T")))
	// SQL's actual behaviour uses NOT IN with its three-valued semantics:
	// SELECT a FROM R WHERE a NOT IN (SELECT a FROM S WHERE a NOT IN T).
	inner := algebra.Sel(algebra.R("S"), algebra.CNot(algebra.CIn(algebra.R("T"), 0)))
	qSQL := algebra.Sel(algebra.R("R"), algebra.CNot(algebra.CIn(inner, 0)))
	sqlRes := plan.SQL(db2, qSQL)
	mu, err := prob.Mu(db2, q, nil, value.Consts("1"), certain.Options{})
	if err != nil {
		return err.Error()
	}
	cert, _ := certain.WithNulls(db2, q, certain.Options{})
	fmt.Fprintf(&b, "R = S = {1}, T = {⊥}; Q = R − (S − T) as SQL's nested NOT IN:\n")
	fmt.Fprintf(&b, "  SQL answer          = %s   (paper: SQL returns {1})\n", renderSet(sqlRes))
	fmt.Fprintf(&b, "  cert⊥               = %s\n", renderSet(cert))
	fmt.Fprintf(&b, "  µ(Q, D, 1)          = %s   (SQL's answer is almost certainly false!)\n", mu.RatString())
	b.WriteString("\nPaper (§5.1): three-valued evaluation with the unif semantics has\n" +
		"correctness guarantees (Cor 5.2); SQL's evaluation does not, because\n" +
		"its ↑ collapse discards the third truth value between subqueries.\n")
	return b.String()
}

// E9SublogicSearch derives L6v from possible-world interpretations, shows
// it is neither idempotent nor distributive, and searches all
// connective-closed sublogics for the maximal idempotent+distributive one
// (Theorem 5.3: it is Kleene's L3v).
func E9SublogicSearch() string {
	var b strings.Builder
	l := logic.SixValued()
	b.WriteString("L6v (derived from epistemic possible-world semantics):\n")
	b.WriteString(l.TruthTable("and"))
	b.WriteString("\n")
	b.WriteString(l.TruthTable("or"))
	b.WriteString("\n")
	b.WriteString(l.TruthTable("not"))
	b.WriteString("\n")
	all := make(logic.Subset, l.Size())
	for i := range all {
		all[i] = i
	}
	fmt.Fprintf(&b, "idempotent: %v   distributive: %v   (paper: L6v is neither)\n",
		l.IdempotentOn(all), l.DistributiveOn(all))
	sIdx := l.ValueIndex("s")
	fmt.Fprintf(&b, "witness: s∧s = %s (≠ s), s∨s = %s\n\n",
		l.Names[l.And(sIdx, sIdx)], l.Names[l.Or(sIdx, sIdx)])
	maxes := l.MaximalSublogics()
	b.WriteString("maximal connective-closed sublogics that are idempotent AND distributive:\n")
	for _, m := range maxes {
		fmt.Fprintf(&b, "  {%s}\n", strings.Join(m.Values, ", "))
	}
	b.WriteString("\nTheorem 5.3: the unique maximum is {f, u, t} — Kleene's L3v. SQL's\n" +
		"choice of three-valued logic is the right one at the propositional\n" +
		"level, given that query optimizers need distributivity+idempotency.\n")
	return b.String()
}

// E10FOTranslation exercises Theorems 5.4/5.5: sizes and verified
// equivalence of the Boolean-FO compilation for sample formulas in each
// semantics, including an ↑-formula (FO↑SQL).
func E10FOTranslation() string {
	// Sample formulas over the gen schema.
	x := fo.X("x")
	y := fo.X("y")
	samples := []struct {
		name string
		f    fo.Formula
		sem  fo.Semantics
	}{
		{"R(x,y) join", fo.Exists{V: "y", F: fo.And{
			L: fo.Atom{Rel: "R", Args: []fo.Term{x, y}},
			R: fo.Atom{Rel: "S", Args: []fo.Term{y}},
		}}, fo.SQLSem()},
		{"negated atom (unif)", fo.Not{F: fo.Atom{Rel: "R", Args: []fo.Term{x, x}}}, fo.UnifSem()},
		{"∀ with equality", fo.Forall{V: "y", F: fo.Or{
			L: fo.Not{F: fo.Atom{Rel: "S", Args: []fo.Term{y}}},
			R: fo.Eq{L: x, R: y},
		}}, fo.SQLSem()},
		{"assertion ↑ (FO↑SQL)", fo.And{
			L: fo.Atom{Rel: "S", Args: []fo.Term{x}},
			R: fo.Assert{F: fo.Not{F: fo.Exists{V: "y", F: fo.And{
				L: fo.Atom{Rel: "T", Args: []fo.Term{y, x}},
				R: fo.Eq{L: y, R: x},
			}}}},
		}, fo.SQLSem()},
	}
	r := rand.New(rand.NewSource(510))
	cfg := gen.DefaultConfig()
	var rows [][]string
	for _, s := range samples {
		pos, neg := fo.Translate(s.f, s.sem)
		// Verify on 5 random databases.
		verified := true
		for i := 0; i < 5; i++ {
			db := gen.DB(r, cfg)
			for _, v := range db.ActiveDomain() {
				env := fo.Env{"x": v}
				tv := fo.Eval(db, s.f, s.sem, env)
				if (tv == logic.T) != (fo.Eval(db, pos, fo.Bool(), env) == logic.T) ||
					(tv == logic.F) != (fo.Eval(db, neg, fo.Bool(), env) == logic.T) {
					verified = false
				}
			}
		}
		expanded := fo.ExpandUnif(pos)
		rows = append(rows, []string{
			s.name, s.sem.Name,
			fmt.Sprintf("%d", fo.Size(s.f)),
			fmt.Sprintf("%d", fo.Size(pos)),
			fmt.Sprintf("%d", fo.Size(neg)),
			fmt.Sprintf("%d", fo.Size(expanded)),
			fmt.Sprintf("%v", verified),
		})
	}
	out := table([]string{"formula", "semantics", "|φ|", "|φt|", "|φf|", "|expand(φt)|", "verified"}, rows)
	return out + "\nTheorems 5.4/5.5: Boolean FO captures FO(L3v) under every mixed\n" +
		"semantics, and even FO↑SQL — three-valued logic adds no expressive\n" +
		"power. The ⇑ expansion shows the translation stays inside pure FO\n" +
		"(at a size cost driven by Bell numbers of the arity).\n"
}

// naiveTally counts one fragment's E11 trials: those whose naive answer is
// cert⊥, those the oracle answered, and those it refused.
type naiveTally struct{ exact, answered, refused int }

// e11Tallies runs E11's 120 random queries per fragment — UCQ (owa/cwa),
// Pos∀G (cwa) and full RA, in that order — against the oracle.
func e11Tallies() [3]naiveTally {
	r := rand.New(rand.NewSource(411))
	cfg := gen.DefaultConfig()
	cfg.MaxTuples = 3
	var out [3]naiveTally
	for i, frag := range []gen.Fragment{gen.FragmentUCQ, gen.FragmentPosForallG, gen.FragmentFull} {
		qcfg := gen.DefaultQueryConfig()
		qcfg.Fragment = frag
		qcfg.MaxDepth = 2
		for trial := 0; trial < 120; trial++ {
			db := gen.DB(r, cfg)
			q := gen.Query(r, qcfg, 1)
			naive := plan.Naive(db, q)
			cert, err := certain.WithNulls(db, q, certain.Options{})
			if err != nil {
				out[i].refused++
				continue
			}
			out[i].answered++
			if naive.EqualSet(cert) {
				out[i].exact++
			}
		}
	}
	return out
}

// E11NaiveEvaluation measures where naive evaluation is exact: random UCQs
// (owa/cwa) and Pos∀G queries (cwa) against the oracle, plus the full-RA
// counterexample.
func E11NaiveEvaluation() string {
	t := e11Tallies()
	rows := [][]string{
		{"UCQ (σπ×∪, = only)", fmt.Sprintf("%d/%d", t[0].exact, t[0].answered), fmt.Sprint(t[0].refused), "exact (Thm 4.4)"},
		{"Pos∀G (adds ÷ by schema relation)", fmt.Sprintf("%d/%d", t[1].exact, t[1].answered), fmt.Sprint(t[1].refused), "exact under cwa (Thm 4.4)"},
		{"full RA (adds −, ≠)", fmt.Sprintf("%d/%d", t[2].exact, t[2].answered), fmt.Sprint(t[2].refused), "NOT exact in general"},
	}
	out := table([]string{"fragment", "naive = cert⊥", "refused", "paper"}, rows)

	// The canonical counterexample.
	db := relation.NewDatabase()
	rr := relation.New("R", "a")
	rr.Add(value.Consts("1"))
	db.Add(rr)
	ss := relation.New("S", "a")
	ss.Add(value.T(db.FreshNull()))
	db.Add(ss)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	naive := plan.Naive(db, q)
	cert, _ := certain.WithNulls(db, q, certain.Options{})
	return out + fmt.Sprintf("\nCounterexample {1} − {⊥}: naive = %s but cert⊥ = %s.\n",
		renderSet(naive), renderSet(cert)) +
		"Expect the UCQ and Pos∀G rows to be 100% and the full-RA row below it.\n"
}

// E12PrecisionRecall reproduces the shape of [27]: precision/recall of
// SQL evaluation, naive evaluation and Q⁺ against exact cert⊥, as the
// fraction of nulls grows.
func E12PrecisionRecall() string {
	var rows [][]string
	for _, rate := range []float64{0.0, 0.05, 0.1, 0.2, 0.3} {
		db := tpchSmallDirty(rate)
		var stats = map[string][3]int{} // name -> correct, returned, certTotal
		answered, refused := 0, 0
		for _, nq := range tpchQueriesForOracle() {
			cert, err := certain.WithNulls(db, nq.Q, certain.Options{MaxWorlds: 1 << 22})
			if err != nil {
				refused++
				continue
			}
			answered++
			add := func(name string, res *relation.Relation) {
				s := stats[name]
				res.Each(func(t value.Tuple, _ int) {
					if cert.Contains(t) {
						s[0]++
					}
				})
				s[1] += res.Len()
				s[2] += cert.Len()
				stats[name] = s
			}
			add("sql", plan.SQL(db, nq.Q))
			add("naive", plan.Naive(db, nq.Q))
			if plus, _, err := translateFig2b(nq.Q); err == nil {
				add("q+", plan.Naive(db, plus))
			}
		}
		for _, name := range []string{"sql", "naive", "q+"} {
			s := stats[name]
			prec, rec := 1.0, 1.0
			if s[1] > 0 {
				prec = float64(s[0]) / float64(s[1])
			}
			if s[2] > 0 {
				rec = float64(s[0]) / float64(s[2])
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", rate*100), fmt.Sprintf("%d", answered), fmt.Sprintf("%d", refused), name,
				fmt.Sprintf("%.3f", prec), fmt.Sprintf("%.3f", rec),
			})
		}
	}
	out := table([]string{"null rate", "answered", "refused", "method", "precision", "recall"}, rows)
	return out + "\nPaper [27]: Q+ keeps 100% precision by construction while its recall\n" +
		"degrades as incompleteness grows; SQL's precision drops below 1 (false\n" +
		"positives). Naive evaluation over-answers similarly.\n"
}

func tpchSmallDirty(rate float64) *relation.Database {
	return tpchDirty(rate)
}
