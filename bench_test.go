// Benchmarks regenerating the paper's figures and the cited quantitative
// results — one benchmark per experiment of DESIGN.md's index (E1–E12),
// plus operator micro-benchmarks. Run:
//
//	go test -bench=. -benchmem
//
// The absolute numbers depend on this machine; the shapes (who wins, by
// what factor, where the blow-ups are) are the reproduction target.
package incdb

import (
	"fmt"
	"runtime"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/ctable"
	"incdb/internal/fo"
	"incdb/internal/gen"
	"incdb/internal/logic"
	"incdb/internal/plan"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/translate"
	"incdb/internal/value"

	"math/rand"
)

// figure1DB is the introduction's database with the NULL payment.
func figure1DB() *relation.Database {
	db := relation.NewDatabase()
	orders := relation.New("Orders", "oid", "title", "price")
	orders.Add(value.Consts("o1", "Big Data", "30"))
	orders.Add(value.Consts("o2", "SQL", "35"))
	orders.Add(value.Consts("o3", "Logic", "50"))
	db.Add(orders)
	payments := relation.New("Payments", "cid", "oid")
	payments.Add(value.Consts("c1", "o1"))
	payments.Add(value.T(value.Const("c2"), db.FreshNull()))
	db.Add(payments)
	customers := relation.New("Customers", "cid", "name")
	customers.Add(value.Consts("c1", "John"))
	customers.Add(value.Consts("c2", "Mary"))
	db.Add(customers)
	return db
}

// figure1Scaled grows the introduction's database with extra NULL payments
// so the oracle's valuation space is large enough to shard: with n nulls
// and range size r the space holds r^n worlds.
func figure1Scaled(extraNulls int) *relation.Database {
	db := figure1DB()
	payments := db.MustRelation("Payments")
	for i := 0; i < extraNulls; i++ {
		payments.Add(value.T(value.Const(fmt.Sprintf("c%d", i+3)), db.FreshNull()))
	}
	return db
}

// BenchmarkE1Figure1 measures the introduction's three queries: SQL
// evaluation vs the exact certain-answer oracle — the oracle both on the
// paper's instance and on a scaled instance with the worker pool toggled,
// which is the engine's serial-vs-parallel comparison point.
func BenchmarkE1Figure1(b *testing.B) {
	db := figure1DB()
	unpaid := algebra.Proj(algebra.Sel(algebra.R("Orders"),
		algebra.CNot(algebra.CIn(algebra.Proj(algebra.R("Payments"), 1), 0))), 0)
	b.Run("sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.SQL(db, unpaid)
		}
	})
	b.Run("cert-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.WithNulls(db, unpaid, certain.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	scaled := figure1Scaled(3)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("cert-oracle-scaled/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := certain.WithNulls(scaled, unpaid, certain.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2Fig2aBlowup shows the Qf translation's active-domain blow-up
// against Q+ at growing database sizes (the [51] vs [37] contrast).
func BenchmarkE2Fig2aBlowup(b *testing.B) {
	q := algebra.Minus(algebra.Proj(algebra.R("R"), 0), algebra.R("S"))
	for _, n := range []int{8, 16, 32, 64} {
		db := relation.NewDatabase()
		r := relation.New("R", "a", "b")
		for i := 0; i < n; i++ {
			r.Add(value.Consts(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%3)))
		}
		db.Add(r)
		s := relation.New("S", "x")
		s.Add(value.T(db.FreshNull()))
		db.Add(s)
		_, qf, err := translate.Fig2a(q, db)
		if err != nil {
			b.Fatal(err)
		}
		plus, _, err := translate.Fig2b(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Qf/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Naive(db, qf)
			}
		})
		b.Run(fmt.Sprintf("Qplus/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Naive(db, plus)
			}
		})
	}
}

// BenchmarkE3TPCHOverhead measures original-vs-Q+ runtimes per TPC-H-like
// query (paper [37]: 1–4 % overhead for most queries).
func BenchmarkE3TPCHOverhead(b *testing.B) {
	db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.05, 0, 21)
	for _, nq := range tpch.Queries() {
		plus, _, err := translate.Fig2b(nq.Q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(nq.Name+"/orig", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.SQL(db, nq.Q)
			}
		})
		b.Run(nq.Name+"/plus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Naive(db, plus)
			}
		})
	}
}

// BenchmarkE4BagBounds measures the bag-semantics pipeline: Q+ and Q?
// under EvalBag plus the exact □Q oracle on a small instance.
func BenchmarkE4BagBounds(b *testing.B) {
	db := relation.NewDatabase()
	r := relation.New("R", "x")
	r.AddMult(value.Consts("a"), 2)
	r.Add(value.Consts("b"))
	db.Add(r)
	s := relation.New("S", "x")
	s.Add(value.T(db.FreshNull()))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	plus, _, err := translate.Fig2b(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bag-plus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.EvalBag(db, plus, algebra.ModeNaive)
		}
	})
	b.Run("box-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.BoxMult(db, q, value.Consts("a"), certain.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5CTableStrategies compares the four strategies of [36] on a
// TPC-H-like difference query.
func BenchmarkE5CTableStrategies(b *testing.B) {
	db := tpch.Dirty(tpch.Generate(tpch.SmallConfig()), 0.1, 0, 13)
	q := tpch.Queries()[0].Q
	for _, s := range []ctable.Strategy{ctable.Eager, ctable.SemiEager, ctable.Lazy, ctable.Aware} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctable.EvalTrue(db, q, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6MuConvergence measures µᵏ counting cost as k grows, against
// the pattern-based asymptotic µ.
func BenchmarkE6MuConvergence(b *testing.B) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(db.FreshNull()))
	s.Add(value.T(db.FreshNull()))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("muK/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prob.MuK(db, q, nil, value.Consts("1"), k, certain.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("muK/k=64/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prob.MuK(db, q, nil, value.Consts("1"), 64, certain.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("mu-limit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prob.Mu(db, q, nil, value.Consts("1"), certain.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7ConditionalMu measures conditional-probability computation
// under an inclusion constraint.
func BenchmarkE7ConditionalMu(b *testing.B) {
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Mu(db, q, sigma, value.Consts("1"), certain.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8UnifSemantics measures three-valued FO evaluation under the
// unif semantics vs the Boolean baseline.
func BenchmarkE8UnifSemantics(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	db := gen.DB(r, gen.Config{MaxTuples: 8, NullRate: 0.3, NullPool: 4, ConstPool: 6})
	f := fo.Exists{V: "y", F: fo.And{
		L: fo.Atom{Rel: "R", Args: []fo.Term{fo.X("x"), fo.X("y")}},
		R: fo.Not{F: fo.Atom{Rel: "S", Args: []fo.Term{fo.X("y")}}},
	}}
	for _, sem := range []fo.Semantics{fo.Bool(), fo.UnifSem(), fo.SQLSem()} {
		b.Run(sem.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fo.Answers(db, f, []string{"x"}, sem)
			}
		})
	}
}

// BenchmarkE9SublogicSearch measures the L6v derivation plus the
// Theorem 5.3 exhaustive sublogic search.
func BenchmarkE9SublogicSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := logic.SixValued()
		if got := l.MaximalSublogics(); len(got) != 1 {
			b.Fatalf("unexpected sublogics: %v", got)
		}
	}
}

// BenchmarkE10FOTranslation measures the Boolean-FO compilation including
// the ⇑ expansion.
func BenchmarkE10FOTranslation(b *testing.B) {
	f := fo.Not{F: fo.Atom{Rel: "R", Args: []fo.Term{fo.X("x"), fo.X("x")}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos, neg := fo.Translate(f, fo.UnifSem())
		fo.ExpandUnif(pos)
		fo.ExpandUnif(neg)
	}
}

// BenchmarkE11NaiveEval measures naive evaluation against the certain
// oracle on UCQs — equal results at vastly different cost (Theorem 4.4).
func BenchmarkE11NaiveEval(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	db := gen.DB(r, gen.DefaultConfig())
	qcfg := gen.DefaultQueryConfig()
	qcfg.Fragment = gen.FragmentUCQ
	q := gen.Query(r, qcfg, 1)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.Naive(db, q)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certain.WithNulls(db, q, certain.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12PrecisionRecall measures one precision/recall sweep cell:
// the oracle-vs-approximation comparison on the tiny dirty instance.
func BenchmarkE12PrecisionRecall(b *testing.B) {
	db := tpch.DirtyColumns(tpch.Generate(tpch.TinyConfig()),
		map[string][]int{"orders": {1, 2}}, 0.3, 2, 27)
	q := tpch.Queries()[0].Q // customers without orders
	plus, _, err := translate.Fig2b(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := certain.WithNulls(db, q, certain.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res := plan.Naive(db, plus)
		if !res.SubsetOfSet(cert) {
			b.Fatal("correctness violation")
		}
	}
}

// BenchmarkTPCHMultiJoin measures the star- and chain-shaped multi-join
// queries end to end through the physical planner: cold pays compilation
// plus one execution (no plan cache), warm re-executes a prepared plan the
// way the oracles' per-world loops do. These queries are written with the
// largest relation syntactically first, so their runtime is dominated by
// how the planner orders the joins.
func BenchmarkTPCHMultiJoin(b *testing.B) {
	db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.05, 0, 21)
	for _, nq := range tpch.MultiJoinQueries() {
		b.Run(nq.Name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Compile(nq.Q, db, algebra.ModeSQL).Exec(db)
			}
		})
		b.Run(nq.Name+"/warm", func(b *testing.B) {
			prep := plan.Compile(nq.Q, db, algebra.ModeSQL).Prepare(db)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prep.Exec(db)
			}
		})
	}
}

// wireSink keeps BenchmarkWireQueryResponse's encoder output live.
var wireSink []byte

// BenchmarkWireQueryResponse measures the query-response codec on the
// largest answer of the tpch_join workload's shape — BenchConfig with 2 %
// nulls, Q1–Q12 under sql, naive and plus: encode renders the answer from
// its relation into response bytes the way incdbd does on a result-cache
// miss, decode parses those bytes the way server.Client does.
func BenchmarkWireQueryResponse(b *testing.B) {
	db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.02, 0, 21)
	var labels []string
	var rels []*relation.Relation
	size := 0
	for _, nq := range append(tpch.Queries(), tpch.MultiJoinQueries()...) {
		plus, _, err := translate.Fig2b(nq.Q)
		if err != nil {
			b.Fatal(err)
		}
		for proc, r := range map[string]*relation.Relation{
			"sql": plan.SQL(db, nq.Q), "naive": plan.Naive(db, nq.Q), "plus": plan.Naive(db, plus),
		} {
			if n := len(api.AppendResults(nil, []string{proc}, []*relation.Relation{r})); n > size {
				labels, rels, size = []string{proc}, []*relation.Relation{r}, n
			}
		}
	}
	resp := api.QueryResponse{Session: "bench", Proc: labels[0], Query: "q", ElapsedMs: 0.25, Worlds: 1, Versions: db.Versions()}
	body := api.AppendQueryResponse(nil, &resp, api.AppendResults(nil, labels, rels))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results := api.AppendResults(nil, labels, rels)
			wireSink = api.AppendQueryResponse(make([]byte, 0, len(results)+512), &resp, results)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var out api.QueryResponse
		for i := 0; i < b.N; i++ {
			if err := api.DecodeQueryResponse(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Operator micro-benchmarks.

func benchDB(n int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	for i := 0; i < n; i++ {
		r.Add(value.Consts(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%7)))
	}
	db.Add(r)
	s := relation.New("S", "a", "b")
	for i := 0; i < n; i++ {
		s.Add(value.Consts(fmt.Sprintf("k%d", i*2), fmt.Sprintf("v%d", i%5)))
	}
	db.Add(s)
	return db
}

func BenchmarkOperatorJoin(b *testing.B) {
	for _, n := range []int{100, 1000} {
		db := benchDB(n)
		q := algebra.Join(algebra.R("R"), algebra.R("S"), algebra.CEq(0, 2))
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Naive(db, q)
			}
		})
	}
}

func BenchmarkOperatorAntiUnify(b *testing.B) {
	for _, n := range []int{100, 1000} {
		db := benchDB(n)
		// Inject a few nulls so the slow path is exercised.
		s := db.MustRelation("S")
		for i := 0; i < 5; i++ {
			s.Add(value.T(db.FreshNull(), value.Const("x")))
		}
		q := algebra.AntiJoin(algebra.R("R"), algebra.R("S"))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Naive(db, q)
			}
		})
	}
}

func BenchmarkOperatorDifference(b *testing.B) {
	db := benchDB(1000)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan.Naive(db, q)
	}
}

func BenchmarkTupleUnification(b *testing.B) {
	l := value.T(value.Null(1), value.Null(1), value.Const("a"), value.Null(2))
	r := value.T(value.Const("x"), value.Null(3), value.Const("a"), value.Const("y"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		value.Unifiable(l, r)
	}
}

func BenchmarkCTableGround(b *testing.B) {
	f := ctable.FAnd{
		L: ctable.FOr{L: ctable.FEq{A: value.Null(1), B: value.Const("a")}, R: ctable.FNeq{A: value.Null(2), B: value.Const("b")}},
		R: ctable.FNot{F: ctable.FEqTuple{R: value.T(value.Null(1), value.Null(1)), S: value.T(value.Const("a"), value.Const("b"))}},
	}
	for i := 0; i < b.N; i++ {
		ctable.Ground(f)
	}
}
