// Equivalence tests for the hash-native data layer: the PR-1 storage keyed
// rows by the injective string Tuple.Key(); this PR keys them by cached
// 64-bit hashes with Tuple.Equal collision checks. These tests keep the
// string-keyed semantics alive as a reference implementation and assert
// that the engine's results are identical to it on randomized instances.
package incdb

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

// refBag is the string-keyed reference representation: a bag of tuples
// keyed by the injective Key() encoding, exactly how Relation stored rows
// before the hash-native layer.
type refBag struct {
	counts map[string]int
	tuples map[string]value.Tuple
}

func newRefBag() *refBag {
	return &refBag{counts: map[string]int{}, tuples: map[string]value.Tuple{}}
}

func (b *refBag) add(t value.Tuple, m int) {
	k := t.Key()
	b.counts[k] += m
	if b.counts[k] <= 0 {
		delete(b.counts, k)
		delete(b.tuples, k)
		return
	}
	b.tuples[k] = t
}

func refOf(r *relation.Relation) *refBag {
	b := newRefBag()
	r.Each(func(t value.Tuple, m int) { b.add(t, m) })
	return b
}

// mustMatch asserts that the relation holds exactly the reference bag, and
// that its own lookups (Contains/Mult), counters (Len/Size) and sorted
// iteration agree with the string-keyed view.
func mustMatch(t *testing.T, label string, r *relation.Relation, want *refBag) {
	t.Helper()
	if r.Len() != len(want.counts) {
		t.Fatalf("%s: Len=%d, reference has %d distinct tuples", label, r.Len(), len(want.counts))
	}
	size := 0
	for _, m := range want.counts {
		size += m
	}
	if r.Size() != size {
		t.Fatalf("%s: Size=%d, reference %d", label, r.Size(), size)
	}
	for k, m := range want.counts {
		tu := want.tuples[k]
		if !r.Contains(tu) {
			t.Fatalf("%s: missing %v", label, tu)
		}
		if got := r.Mult(tu); got != m {
			t.Fatalf("%s: Mult(%v)=%d, reference %d", label, tu, got, m)
		}
	}
	prev := value.Tuple(nil)
	seen := map[string]bool{}
	r.Each(func(tu value.Tuple, m int) {
		k := tu.Key()
		if seen[k] {
			t.Fatalf("%s: duplicate tuple %v in iteration", label, tu)
		}
		seen[k] = true
		if want.counts[k] != m {
			t.Fatalf("%s: iterated %v ×%d, reference ×%d", label, tu, m, want.counts[k])
		}
		if prev != nil && prev.Compare(tu) >= 0 {
			t.Fatalf("%s: iteration not strictly sorted: %v before %v", label, prev, tu)
		}
		prev = tu
	})
	if len(seen) != len(want.counts) {
		t.Fatalf("%s: iteration visited %d tuples, reference %d", label, len(seen), len(want.counts))
	}
}

// randomRelation builds a relation over a pool of constants and marked
// nulls, with duplicate inserts and multiplicity arithmetic exercised.
func randomRelation(r *rand.Rand, name string, arity, rows int) *relation.Relation {
	rel := relation.NewArity(name, arity)
	val := func() value.Value {
		if r.Intn(4) == 0 {
			return value.Null(uint64(r.Intn(3) + 1))
		}
		return value.Int(r.Intn(4))
	}
	for i := 0; i < rows; i++ {
		t := make(value.Tuple, arity)
		for j := range t {
			t[j] = val()
		}
		rel.AddMult(t, r.Intn(3)+1)
	}
	return rel
}

// TestRelationMatchesStringKeyedReference drives random mutation sequences
// through both representations and asserts they never diverge.
func TestRelationMatchesStringKeyedReference(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 50; trial++ {
		rel := relation.NewArity("T", 2)
		want := newRefBag()
		for op := 0; op < 60; op++ {
			tu := value.T(value.Int(r.Intn(5)), value.Null(uint64(r.Intn(3)+1)))
			if r.Intn(2) == 0 {
				tu[1] = value.Int(r.Intn(5))
			}
			switch r.Intn(3) {
			case 0:
				rel.Add(tu)
				want.add(tu, 1)
			case 1:
				m := r.Intn(5) - 2 // negative subtractions included
				rel.AddMult(tu, m)
				want.add(tu, m)
			default:
				m := r.Intn(4)
				rel.SetMult(tu, m)
				k := tu.Key()
				delete(want.counts, k)
				delete(want.tuples, k)
				if m > 0 {
					want.counts[k] = m
					want.tuples[k] = tu
				}
			}
		}
		mustMatch(t, "mutation sequence", rel, want)
	}
}

// TestOperatorsMatchStringKeyedReference evaluates the dedup-sensitive
// operators (union, difference, intersection, projection) through the
// engine and through string-keyed reference folds, under both bag and set
// semantics, and asserts identical results.
func TestOperatorsMatchStringKeyedReference(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 40; trial++ {
		db := relation.NewDatabase()
		db.Add(randomRelation(r, "L", 2, 8))
		db.Add(randomRelation(r, "R", 2, 8))
		l, rr := db.MustRelation("L"), db.MustRelation("R")

		for _, bag := range []bool{false, true} {
			eval := func(q algebra.Expr) *relation.Relation {
				if bag {
					return plan.EvalBag(db, q, algebra.ModeNaive)
				}
				return plan.Eval(db, q, algebra.ModeNaive)
			}
			multOf := func(rel *relation.Relation, tu value.Tuple) int {
				if !bag {
					if rel.Contains(tu) {
						return 1
					}
					return 0
				}
				return rel.Mult(tu)
			}

			union := newRefBag()
			l.Each(func(tu value.Tuple, m int) { union.add(tu, multOf(l, tu)) })
			rr.Each(func(tu value.Tuple, m int) { union.add(tu, multOf(rr, tu)) })
			if !bag { // set semantics normalizes after merging
				for k := range union.counts {
					union.counts[k] = 1
				}
			}
			mustMatch(t, "union", eval(algebra.Un(algebra.R("L"), algebra.R("R"))), union)

			diff := newRefBag()
			l.Each(func(tu value.Tuple, m int) {
				if bag {
					if rest := m - rr.Mult(tu); rest > 0 {
						diff.add(tu, rest)
					}
				} else if !rr.Contains(tu) {
					diff.add(tu, 1)
				}
			})
			mustMatch(t, "diff", eval(algebra.Minus(algebra.R("L"), algebra.R("R"))), diff)

			inter := newRefBag()
			l.Each(func(tu value.Tuple, m int) {
				rm := rr.Mult(tu)
				if rm == 0 {
					return
				}
				if !bag {
					inter.add(tu, 1)
					return
				}
				if rm < m {
					m = rm
				}
				inter.add(tu, m)
			})
			mustMatch(t, "intersect", eval(algebra.Inter(algebra.R("L"), algebra.R("R"))), inter)

			proj := newRefBag()
			l.Each(func(tu value.Tuple, m int) {
				pm := multOf(l, tu)
				proj.add(tu.Project([]int{0}), pm)
			})
			if !bag {
				for k := range proj.counts {
					proj.counts[k] = 1
				}
			}
			mustMatch(t, "project", eval(algebra.Proj(algebra.R("L"), 0)), proj)
		}
	}
}

// mustEvalEqual asserts that the planned evaluation of q is byte-identical
// to the reference interpreter: same tuple multiset, same multiplicities,
// and the same deterministic rendering (modulo the relation name, which is
// unified before comparing).
func mustEvalEqual(t *testing.T, db *relation.Database, q algebra.Expr, label string) {
	t.Helper()
	for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
		for _, bag := range []bool{false, true} {
			var want, got *relation.Relation
			if bag {
				want = algebra.EvalBagInterp(db, q, mode)
				got = plan.EvalBag(db, q, mode)
			} else {
				want = algebra.EvalInterp(db, q, mode)
				got = plan.Eval(db, q, mode)
			}
			if !want.Equal(got) {
				t.Fatalf("%s (%v, bag=%t): planned result diverges\nQ = %s\nD = %v\ninterp = %v\nplanned = %v",
					label, mode, bag, q, db, want, got)
			}
			ws, gs := want.Rename("q").String(), got.Rename("q").String()
			if ws != gs {
				t.Fatalf("%s (%v, bag=%t): renderings diverge\nQ = %s\ninterp:\n%s\nplanned:\n%s",
					label, mode, bag, q, ws, gs)
			}
		}
	}
}

// TestPlannerMatchesInterpreterRandom is the randomized planner-equivalence
// corpus: full relational algebra with difference, plus IN-subquery atoms,
// over random incomplete databases — planned evaluation must be
// byte-identical to the reference interpreter in both modes and under both
// semantics.
func TestPlannerMatchesInterpreterRandom(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	cfg := gen.DefaultConfig()
	cfg.MaxTuples = 6
	qcfg := gen.DefaultQueryConfig()
	qcfg.InSubRate = 0.25
	for trial := 0; trial < 300; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1+r.Intn(2))
		mustEvalEqual(t, db, q, "random corpus")
	}
	// The Pos∀G fragment adds division.
	qcfg = gen.DefaultQueryConfig()
	qcfg.Fragment = gen.FragmentPosForallG
	for trial := 0; trial < 100; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1+r.Intn(2))
		mustEvalEqual(t, db, q, "pos-forall-g corpus")
	}
}

// TestPlannerMatchesInterpreterJoins pins down the join shapes the planner
// normalizes specially: multi-equality conjuncts, products nested beyond
// one level, selections interleaved with projections, anti-unification and
// the active-domain query.
func TestPlannerMatchesInterpreterJoins(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	cfg := gen.Config{MaxTuples: 5, NullRate: 0.3, NullPool: 3, ConstPool: 3}
	queries := []struct {
		name string
		q    algebra.Expr
	}{
		{"two-key join", algebra.Sel(
			algebra.Times(algebra.R("R"), algebra.R("T")),
			algebra.CAnd(algebra.CEq(0, 2), algebra.CEq(1, 3)))},
		{"three-way chain", algebra.Sel(
			algebra.Times(algebra.Times(algebra.R("R"), algebra.R("T")), algebra.R("S")),
			algebra.CAnd(algebra.CEq(1, 2), algebra.CEq(3, 4)))},
		{"nested select over product", algebra.Sel(
			algebra.Times(
				algebra.Sel(algebra.R("R"), algebra.CEqC(1, gen.ConstOf(0))),
				algebra.R("T")),
			algebra.CEq(0, 2))},
		{"join through projection", algebra.Proj(algebra.Sel(
			algebra.Times(algebra.Proj(algebra.R("R"), 1, 0), algebra.R("T")),
			algebra.CEq(0, 2)), 1, 3)},
		{"residual inequality", algebra.Sel(
			algebra.Times(algebra.R("R"), algebra.R("T")),
			algebra.CAnd(algebra.CEq(0, 2), algebra.CNeq(1, 3)))},
		{"disjunctive spanning condition", algebra.Sel(
			algebra.Times(algebra.R("R"), algebra.R("T")),
			algebra.COr(algebra.CEq(0, 2), algebra.CEq(1, 3)))},
		{"cross product no keys", algebra.Times(algebra.R("S"), algebra.R("S"))},
		{"anti-unify under filter", algebra.Sel(
			algebra.AntiJoin(algebra.R("R"), algebra.R("T")),
			algebra.CConst(0))},
		{"difference of joins", algebra.Minus(
			algebra.Proj(algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("T")), algebra.CEq(1, 2)), 0),
			algebra.R("S"))},
		{"division", algebra.Div(algebra.R("R"), algebra.R("S"))},
		{"dom power", algebra.Sel(algebra.DomK(2), algebra.CEq(0, 1))},
		{"in over join", algebra.Sel(algebra.R("R"),
			algebra.CIn(algebra.Proj(algebra.Sel(
				algebra.Times(algebra.R("T"), algebra.R("S")), algebra.CEq(1, 2)), 0), 0))},
		{"selection with null tests", algebra.Sel(
			algebra.Times(algebra.R("R"), algebra.R("T")),
			algebra.CAnd(algebra.CEq(0, 2), algebra.CAnd(algebra.CConst(1), algebra.CNull(3))))},
	}
	for trial := 0; trial < 40; trial++ {
		db := gen.DB(r, cfg)
		for _, tc := range queries {
			mustEvalEqual(t, db, tc.q, tc.name)
		}
	}
}

// TestPreparedMatchesPerWorldEval locks in the oracle contract: executing a
// prepared plan under a valuation v must match interpreting the query on
// the world v(D) from scratch, for every valuation of a small space — under
// both modes (the oracles use naive) and both semantics.
func TestPreparedMatchesPerWorldEval(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	qcfg.InSubRate = 0.2
	for trial := 0; trial < 30; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1)
		space, err := certain.NewSpace(db, algebra.ConstsOf(q), certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				var p *plan.Plan
				if bag {
					p = plan.CompileBag(q, db, mode)
				} else {
					p = plan.Compile(q, db, mode)
				}
				run := p.Prepare(db).Runner(nil)
				worlds := 0
				space.Each(func(v value.Valuation) bool {
					world := db.Apply(v)
					var want *relation.Relation
					if bag {
						want = algebra.EvalBagInterp(world, q, mode)
					} else {
						want = algebra.EvalInterp(world, q, mode)
					}
					got := run.Eval(v).Result().Relation()
					if !want.Equal(got) {
						t.Fatalf("trial %d %v bag=%t: prepared exec diverges on world %v\nQ = %s\ninterp = %v\nprepared = %v",
							trial, mode, bag, v, q, want, got)
					}
					worlds++
					return worlds < 32 // bounded: the space can be large
				})
				run.Close()
			}
		}
	}
}

// skewedJoinDB builds n arity-2 relations J0..J(n-1) with deliberately
// skewed cardinalities: most inputs are tiny, one or two are 10–40× larger.
// The shared constant pool makes key equalities selective but non-empty, so
// the cost-based order differs materially from the syntactic one.
func skewedJoinDB(r *rand.Rand, n int) *relation.Database {
	db := relation.NewDatabase()
	big := r.Intn(n)
	for i := 0; i < n; i++ {
		cfg := gen.Config{MaxTuples: 1 + r.Intn(3), NullRate: 0.15, NullPool: 2, ConstPool: 6}
		if i == big || r.Intn(n) == 0 {
			cfg.MaxTuples = 10 + r.Intn(30)
		}
		db.Add(gen.Relation(r, "J"+string(rune('0'+i)), 2, cfg))
	}
	return db
}

// chainQuery joins J0..J(n-1) in a chain — each input's second column
// equals the next input's first — as interleaved σ/× levels, how translated
// queries arrive. The planner flattens the whole nest into one join cluster
// and reorders it; the reference interpreter peels one hash join per level.
func chainQuery(n int) algebra.Expr {
	e := algebra.Expr(algebra.R("J0"))
	for i := 1; i < n; i++ {
		e = algebra.Sel(
			algebra.Times(e, algebra.R("J"+string(rune('0'+i)))),
			algebra.CEq(2*i-1, 2*i))
	}
	return e
}

// starQuery joins the k-ary center C against dimensions J1..Jk, center
// column i-1 matching dimension i's key column. Dimensions append on the
// right, so each link's column indices are stable as the star grows.
func starQuery(k int) algebra.Expr {
	e := algebra.Expr(algebra.R("C"))
	for i := 1; i <= k; i++ {
		e = algebra.Sel(
			algebra.Times(e, algebra.R("J"+string(rune('0'+i)))),
			algebra.CEq(i-1, k+2*(i-1)))
	}
	return e
}

// TestPlannerMatchesInterpreterChainJoins extends the equivalence corpus
// with randomized 4–8-relation chain joins over skewed inputs: the
// cost-based, column-pruned, batched plans must stay byte-identical to the
// interpreter in every mode and semantics.
func TestPlannerMatchesInterpreterChainJoins(t *testing.T) {
	r := rand.New(rand.NewSource(8801))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(5)
		db := skewedJoinDB(r, n)
		q := chainQuery(n)
		if r.Intn(2) == 0 {
			// Half the trials project a few columns so pruning masks are
			// narrow rather than full-width.
			q = algebra.Proj(q, 0, 2*n-1)
		}
		mustEvalEqual(t, db, q, "chain join")
	}
}

// TestPlannerMatchesInterpreterStarJoins does the same for star shapes: a
// k-ary center joined to k dimension tables of wildly different sizes.
func TestPlannerMatchesInterpreterStarJoins(t *testing.T) {
	r := rand.New(rand.NewSource(8802))
	for trial := 0; trial < 25; trial++ {
		k := 3 + r.Intn(5) // 4–8 relations including the center
		db := relation.NewDatabase()
		ccfg := gen.Config{MaxTuples: 8 + r.Intn(20), NullRate: 0.1, NullPool: 2, ConstPool: 6}
		db.Add(gen.Relation(r, "C", k, ccfg))
		for i := 1; i <= k; i++ {
			dcfg := gen.Config{MaxTuples: 1 + r.Intn(4), NullRate: 0.15, NullPool: 2, ConstPool: 6}
			if r.Intn(3) == 0 {
				dcfg.MaxTuples = 12 + r.Intn(24)
			}
			db.Add(gen.Relation(r, "J"+string(rune('0'+i)), 2, dcfg))
		}
		q := starQuery(k)
		if r.Intn(2) == 0 {
			q = algebra.Proj(q, r.Intn(k), k+1)
		}
		mustEvalEqual(t, db, q, "star join")
	}
}

// TestPreparedChainJoinsPerWorld closes the loop on the oracle contract for
// the new shapes: prepared chain-join plans executed per world must match
// interpreting each world from scratch.
func TestPreparedChainJoinsPerWorld(t *testing.T) {
	r := rand.New(rand.NewSource(8803))
	for trial := 0; trial < 6; trial++ {
		n := 4 + r.Intn(3)
		db := skewedJoinDB(r, n)
		q := chainQuery(n)
		space, err := certain.NewSpace(db, algebra.ConstsOf(q), certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				var p *plan.Plan
				if bag {
					p = plan.CompileBag(q, db, mode)
				} else {
					p = plan.Compile(q, db, mode)
				}
				run := p.Prepare(db).Runner(nil)
				worlds := 0
				space.Each(func(v value.Valuation) bool {
					world := db.Apply(v)
					var want *relation.Relation
					if bag {
						want = algebra.EvalBagInterp(world, q, mode)
					} else {
						want = algebra.EvalInterp(world, q, mode)
					}
					if got := run.Eval(v).Result().Relation(); !want.Equal(got) {
						t.Fatalf("trial %d %v bag=%t: prepared chain join diverges on world %v\nQ = %s\ninterp = %v\nprepared = %v",
							trial, mode, bag, v, q, want, got)
					}
					worlds++
					return worlds < 16
				})
				run.Close()
			}
		}
	}
}

// TestPlannerStaleStatsStillExact is the adversarial case: plans compiled
// when the statistics said one thing keep executing against a database whose
// cardinalities have inverted — estimates maximally wrong, join order
// pessimal — and the answers must still be byte-identical to the
// interpreter. Correctness must never depend on the cost model.
func TestPlannerStaleStatsStillExact(t *testing.T) {
	r := rand.New(rand.NewSource(8804))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(2)
		db := skewedJoinDB(r, n)
		q := chainQuery(n)
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				var p *plan.Plan
				if bag {
					p = plan.CompileBag(q, db, mode)
				} else {
					p = plan.Compile(q, db, mode)
				}
				// Invert the skew after compilation: formerly-tiny inputs
				// become the biggest, the big ones stay as they were. The
				// compiled plan's order and build/probe choices are now
				// maximally wrong for this data.
				for i := 0; i < n; i++ {
					rel := db.MustRelation("J" + string(rune('0'+i)))
					if rel.Len() <= 4 {
						for j := 0; j < 25; j++ {
							rel.Add(value.T(
								value.Const("c"+string(rune('0'+r.Intn(6)))),
								value.Const("c"+string(rune('0'+r.Intn(6)))),
							))
						}
					}
				}
				var want *relation.Relation
				if bag {
					want = algebra.EvalBagInterp(db, q, mode)
				} else {
					want = algebra.EvalInterp(db, q, mode)
				}
				if got := p.Exec(db); !want.Equal(got) {
					t.Fatalf("trial %d %v bag=%t: stale-stats plan diverges\nQ = %s\ninterp = %v\nplanned = %v",
						trial, mode, bag, q, want, got)
				}
			}
		}
	}
}

// TestRandomQueriesInternallyConsistent runs randomized gen queries end to
// end and asserts the result relations agree with their own string-keyed
// view — the whole-query version of the operator-level checks above.
func TestRandomQueriesInternallyConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	cfg := gen.DefaultConfig()
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 25; trial++ {
		db := gen.DB(r, cfg)
		q := gen.Query(r, qcfg, 1+r.Intn(2))
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			res := plan.Eval(db, q, mode)
			mustMatch(t, "set "+mode.String(), res, refOf(res))
			res = plan.EvalBag(db, q, mode)
			mustMatch(t, "bag "+mode.String(), res, refOf(res))
		}
	}
}
