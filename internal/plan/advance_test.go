package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/gen"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// advancing is one Prepared followed across mutations of its base: after
// each one it is caught up — advanced, or prepared afresh when catchUp says
// stale — and compared, on every valuation, with a fresh Prepare and the
// interpreter.
type advancing struct {
	t    *testing.T
	db   *relation.Database
	q    algebra.Expr
	mode algebra.Mode
	bag  bool
	prep *Prepared

	advanced, stale int
}

func follow(t *testing.T, db *relation.Database, q algebra.Expr, mode algebra.Mode, bag bool) *advancing {
	return &advancing{t: t, db: db, q: q, mode: mode, bag: bag, prep: compile(q, db, mode, bag).Prepare(db)}
}

// catchUp brings the followed Prepared up to the base and reports what
// catchUp said.
func (a *advancing) catchUp() catchUpResult {
	res := a.prep.catchUp(a.db)
	switch res {
	case prepAdvanced:
		a.advanced++
	case prepStale:
		a.stale++
		a.prep = compile(a.q, a.db, a.mode, a.bag).Prepare(a.db)
	}
	return res
}

// check compares the followed Prepared with a fresh one and the interpreter
// (and that with a one-shot Plan.Exec, on the base itself) on the identity valuation and every
// stride-th valuation of the base's nulls into rng.
func (a *advancing) check(rng []value.Value, stride int, step string) {
	a.t.Helper()
	interp := algebra.EvalInterp
	if a.bag {
		interp = algebra.EvalBagInterp
	}
	fresh := compile(a.q, a.db, a.mode, a.bag)
	run, ref := a.prep.Runner(nil), fresh.Prepare(a.db).Runner(nil)
	defer run.Close()
	defer ref.Close()
	ids := a.db.NullIDs()
	one := func(v value.Valuation) bool {
		want := interp(a.db.Apply(v), a.q, a.mode)
		for name, got := range map[string]*relation.Relation{
			"advanced": run.Eval(v).Result().Relation(), "fresh": ref.Eval(v).Result().Relation(),
		} {
			if !want.Equal(got) {
				a.t.Errorf("%s: %s %v bag=%t v=%v: %s = %v, interpreter = %v", step, a.q, a.mode, a.bag, v, name, got, want)
				return false
			}
		}
		return true
	}
	if got, want := fresh.Exec(a.db), interp(a.db, a.q, a.mode); !want.Equal(got) {
		a.t.Errorf("%s: %s %v bag=%t: Plan.Exec = %v, interpreter = %v", step, a.q, a.mode, a.bag, got, want)
	}
	if one(nil) {
		i := -1
		rngs := value.Uniform(len(ids), rng)
		value.EnumValuations(ids, rngs, 0, value.EnumSize(rngs), func(v value.Valuation) bool {
			i++
			return i%stride != 0 || one(v)
		})
	}
	if got, want := a.prep.NullIDs(), fresh.Prepare(a.db).NullIDs(); fmt.Sprint(got) != fmt.Sprint(want) {
		a.t.Errorf("%s: %s %v bag=%t: null ids %v after catching up, %v fresh", step, a.q, a.mode, a.bag, got, want)
	}
}

// advanceScript appends to every relation of deltaData: null-free rows that
// join and select, duplicates, rows carrying an old and a new null in read
// and in pruned columns, rows on the negative side of every difference.
var advanceScript = []string{
	"row V k3",    // null-free, into the frozen side of minus/IN/⋉⇑
	"row R k2 v1", // null-free, joins S on k2
	"row R k2 v1", // duplicate: a no-op under sets, one more under bags
	"row S k3 w1", // null-free build side
	"row R k3 _1", // one more template (over a null of its own: names are per load)
	"row T _3",    // a null row into a one-column relation
	"row T v1",    // grows the divisor and the IN set
	// One new null twice: in a column most queries prune and in a key column.
	"row U k3 _9\nrow S _9 w2",
	"row R v1 v1",                  // null-free
	"row V w1\nrow V u1\nrow T k2", // one load, several relations
}

// TestAppendsMatchFresh drives the delta corpus across advanceScript:
// after every append the advanced Prepared must answer like a fresh one and
// like the interpreter, in both modes and semantics, whether or not anything
// had been built from it before — on a sample of the valuations (the random
// test below takes them all): what an advance changes are the frozen
// artifacts, which every world shares. A SetMult in the middle must make
// catchUp refuse.
func TestAppendsMatchFresh(t *testing.T) {
	exprs := deltaExprs()
	for _, src := range deltaQueries {
		q, err := raparse.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		exprs = append(exprs, q)
	}
	rng := append(value.Consts("k1", "v1"), value.Const("⁑fresh"))
	advanced, rederived := 0, 0
	for qi, q := range exprs {
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				db, err := raparse.ParseDatabase(strings.NewReader(deltaData))
				if err != nil {
					t.Fatal(err)
				}
				a := follow(t, db, q, mode, bag)
				// Every other query starts cold: nothing built to fold into.
				if qi%2 == 0 {
					a.check(rng, 27, "before")
				}
				for i, load := range advanceScript {
					if err := raparse.ParseDatabaseInto(strings.NewReader(load), db); err != nil {
						t.Fatal(err)
					}
					a.catchUp()
					stride := 27
					if i == len(advanceScript)-1 {
						stride = 3
					}
					a.check(rng, stride, fmt.Sprintf("after %q", load))
					for _, ps := range append([]*planState{a.prep.main}, a.prep.subs...) {
						for id := range ps.nodes {
							if ps.nodes[id].rederived {
								rederived++
							}
						}
					}
					if i == 4 {
						// Not an insert: nothing cached may survive it.
						db.Relation("V").SetMult(value.Consts("k2"), 0)
						reads := a.prep.p.root.base().reads
						readsV := reads.dom
						for _, name := range reads.names {
							readsV = readsV || name == "V"
						}
						if res := a.catchUp(); readsV && res != prepStale {
							t.Errorf("%s: catchUp after SetMult = %v, want stale", q, res)
						}
						a.check(rng, 27, "after SetMult")
					}
					if t.Failed() {
						t.FailNow()
					}
				}
				advanced += a.advanced
			}
		}
	}
	if advanced == 0 || rederived == 0 {
		t.Errorf("corpus never advanced (%d) or never re-derived a node (%d)", advanced, rederived)
	}
}

// TestAppendsMatchFreshRandom is the same property over random
// internal/gen instances and queries with randomly interleaved appends:
// random rows over the instance's constants and nulls, old and new.
func TestAppendsMatchFreshRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1709))
	cfg := gen.DefaultConfig()
	full := gen.DefaultQueryConfig()
	full.InSubRate = 0.2
	div := gen.DefaultQueryConfig()
	div.Fragment = gen.FragmentPosForallG
	rng := []value.Value{gen.ConstOf(0), gen.ConstOf(1), value.Const("⁑fresh")}
	advanced, stale := 0, 0
	for trial := 0; trial < 80; trial++ {
		db := gen.DB(r, cfg)
		qcfg := full
		if trial%4 == 3 {
			qcfg = div
		}
		q := gen.Query(r, qcfg, 1+trial%2)
		var as []*advancing
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				as = append(as, follow(t, db, q, mode, bag))
			}
		}
		for step := 0; step < 6; step++ {
			if step > 0 {
				// One to three rows between catch-ups.
				for n := 1 + r.Intn(3); n > 0; n-- {
					rel := db.Relation([]string{"R", "S", "T"}[r.Intn(3)])
					row := make(value.Tuple, rel.Arity())
					for i := range row {
						switch {
						case r.Float64() < 0.25:
							row[i] = value.Null(uint64(1 + r.Intn(4))) // ⊥4 is new
						default:
							row[i] = gen.ConstOf(r.Intn(cfg.ConstPool))
						}
					}
					rel.AddMult(row, 1+r.Intn(2))
				}
			}
			for _, a := range as {
				// Some lookups come late: the next catch-up spans two rounds.
				if step > 0 && r.Intn(4) == 0 {
					continue
				}
				a.catchUp()
				a.check(rng, 1, fmt.Sprintf("trial %d step %d", trial, step))
			}
			if t.Failed() {
				t.Fatalf("trial %d failed", trial)
			}
		}
		for _, a := range as {
			advanced += a.advanced
			stale += a.stale
		}
	}
	if advanced < 2*stale || stale == 0 {
		t.Errorf("%d advances, %d fresh preparations: want mostly advances and some refusals", advanced, stale)
	}
}

// TestAdvanceOverConsolidatedInput follows a join whose input re-decides the
// frozen part of a null-free, full-width scan whole — a filter whose IN
// subquery grew, an anti-unify whose right side did — across catch-ups that
// append to both join sides. The scan's frozen part is then the relation
// itself, which already holds the appended rows: a join table first built
// during such an advance must still count them once. A outnumbers B, so
// that B is the join's build side and the table over A's side is the one
// first built during the advance.
func TestAdvanceOverConsolidatedInput(t *testing.T) {
	const data = `
rel A a b
row A k1 x
row A k2 x
row A k3 x
row A k4 x
row A k5 x
row A k6 x
row A k7 x
rel B a c
row B k1 y
row B k2 y
rel T x
row T k1
rel W a b
row W k9 x
`
	loads := []string{
		"row T k2\nrow W k8 x", // the blocking inputs grow: re-derived from A whole
		"row A k2 x\nrow B k2 z",
		"row A k1 x\nrow B k1 z\nrow B k3 z",
	}
	blocked := []algebra.Expr{
		algebra.Sel(algebra.R("A"), algebra.CIn(algebra.R("T"), 0)),
		algebra.AntiJoin(algebra.R("A"), algebra.R("W")),
	}
	for _, l := range blocked {
		for _, q := range []algebra.Expr{
			algebra.Join(l, algebra.R("B"), algebra.CEq(0, 2)),
			algebra.Join(algebra.R("B"), l, algebra.CEq(0, 2)),
		} {
			for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
				for _, bag := range []bool{false, true} {
					db, err := raparse.ParseDatabase(strings.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					a := follow(t, db, q, mode, bag)
					a.check(nil, 1, "before")
					for _, load := range loads {
						if err := raparse.ParseDatabaseInto(strings.NewReader(load), db); err != nil {
							t.Fatal(err)
						}
						if res := a.catchUp(); res != prepAdvanced {
							t.Errorf("%s bag=%t: catchUp after %q = %v, want advanced", q, bag, load, res)
						}
						a.check(nil, 1, fmt.Sprintf("after %q", load))
					}
				}
			}
		}
	}
}

// TestAdvanceConcurrentReaders is the serving discipline under -race: a
// writer appends under the write lock; readers, under the read lock, look
// the query up in a shared PrepCache — the first one after an append
// advances the entry, the others wait for it on the entry's lock — and
// evaluate it. Every answer must be the interpreter's for the version the
// reader holds.
func TestAdvanceConcurrentReaders(t *testing.T) {
	db, err := raparse.ParseDatabase(strings.NewReader(deltaData))
	if err != nil {
		t.Fatal(err)
	}
	var queries []algebra.Expr
	for _, src := range []string{
		"proj(1 3, sel(eq(0, 2), times(R, S)))",
		"minus(proj(0, R), V)",
		"minus(V, proj(0, R))",
		"sel(not(in(0, proj(0, S))), R)",
		"union(proj(0, R), T)",
	} {
		q, err := raparse.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	cache := NewPrepCache(0)
	var mu sync.RWMutex
	const appends, readers = 40, 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				mu.RLock()
				got := cache.Get(db, q, algebra.ModeNaive, false).Exec(db)
				want := algebra.EvalInterp(db, q, algebra.ModeNaive)
				mu.RUnlock()
				if !want.Equal(got) {
					t.Errorf("reader %d: %s = %v, interpreter = %v", g, q, got, want)
					return
				}
			}
		}(g)
	}
	for i := 0; i < appends; i++ {
		mu.Lock()
		db.Relation("R").Add(value.Consts(fmt.Sprintf("k%d", i%5), fmt.Sprintf("n%d", i)))
		db.Relation("S").Add(value.Consts(fmt.Sprintf("k%d", i%7), "w1"))
		if i%3 == 0 {
			db.Relation("V").Add(value.Consts(fmt.Sprintf("k%d", i)))
		}
		mu.Unlock()
		// Let every reader see this version at least once in a while.
		mu.RLock()
		cache.Get(db, queries[i%len(queries)], algebra.ModeNaive, false)
		mu.RUnlock()
	}
	close(done)
	wg.Wait()
	if st := cache.Stats(); st.Advances == 0 || st.Invalidations != 0 {
		t.Errorf("stats %+v: want advances and no dropped entry", st)
	}
}

// TestManyAppendsAbsorbed: a Prepared that has absorbed 10 000 single-row
// appends answers like a freshly prepared one, and the bounded append log
// running out — a lookup that comes later than the log reaches back — is a
// counted fresh preparation, not an error.
func TestManyAppendsAbsorbed(t *testing.T) {
	db, err := raparse.ParseDatabase(strings.NewReader("rel Orders oid cid\nrel Payments oid\nrel Customers cid name\nrow Customers c1 _1\nrow Customers c2 n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	var queries []algebra.Expr
	for _, src := range []string{
		"proj(0, sel(eqc(1, 'c1'), Orders))",
		"proj(0, sel(not(in(0, Payments)), sel(eqc(1, 'c1'), Orders)))",
		"minus(proj(0, Customers), proj(1, Orders))",
		"proj(0 3, sel(eq(1, 2), times(Orders, Customers)))",
	} {
		q, err := raparse.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	cache := NewPrepCache(0)
	orders, payments := db.Relation("Orders"), db.Relation("Payments")
	const n = 10000
	for i := 0; i < n; i++ {
		orders.Add(value.Consts(fmt.Sprintf("o%d", i), fmt.Sprintf("c%d", 1+i%3)))
		if i%2 == 0 {
			payments.Add(value.Consts(fmt.Sprintf("o%d", i/2)))
		}
		for _, q := range queries {
			prep := cache.Get(db, q, algebra.ModeNaive, false)
			if i%1000 == 999 || i < 20 {
				if got, want := prep.Exec(db), algebra.EvalInterp(db, q, algebra.ModeNaive); !want.Equal(got) {
					t.Fatalf("after %d appends: %s = %d rows, interpreter %d rows", i+1, q, got.Len(), want.Len())
				}
			}
		}
	}
	st := cache.Stats()
	// The plan key folds in each relation's log₂ size class, so a relation
	// that doubles is looked up under a new key: a handful of misses.
	if st.Invalidations != 0 || st.Advances < uint64(len(queries))*(n-100) {
		t.Errorf("stats %+v: want every lookup but the size-class misses to advance", st)
	}
	for _, q := range queries {
		prep := cache.Get(db, q, algebra.ModeNaive, false)
		if prep.absorbed == 0 {
			t.Errorf("%s: nothing absorbed", q)
		}
		assertExplainLikeFresh(t, db, q, prep)
	}

	// Fall further behind than the log reaches (and stay inside the size
	// class, so the lookup finds the entry).
	q := queries[0]
	for i := 0; i < maxLogProbe; i++ {
		orders.Add(value.Consts(fmt.Sprintf("late%d", i), "c1"))
	}
	prep := cache.Get(db, q, algebra.ModeNaive, false)
	if after := cache.Stats(); after.Invalidations != 1 || after.Advances != st.Advances {
		t.Errorf("lookup %d appends late: stats %+v → %+v, want one dropped entry and no advance", maxLogProbe, st, after)
	}
	if got, want := prep.Exec(db), algebra.EvalInterp(db, q, algebra.ModeNaive); !want.Equal(got) {
		t.Errorf("after the fallback: %d rows, interpreter %d", got.Len(), want.Len())
	}
}

// maxLogProbe is more appends than any append log remembers.
const maxLogProbe = 1000

// assertExplainLikeFresh: once both have executed, an advanced Prepared and
// a fresh one report the same frozen row counts node by node.
func assertExplainLikeFresh(t *testing.T, db *relation.Database, q algebra.Expr, prep *Prepared) {
	t.Helper()
	fresh := prep.p.Prepare(db)
	prep.Exec(db)
	fresh.Exec(db)
	var walk func(a, b *ExplainNode)
	walk = func(a, b *ExplainNode) {
		switch {
		case (a.FrozenRows == nil) != (b.FrozenRows == nil):
			t.Errorf("%s: node %s: frozen rows known to one side only", q, a.Op)
		case a.FrozenRows != nil && *a.FrozenRows != *b.FrozenRows:
			t.Errorf("%s: node %s: frozen rows %d advanced, %d fresh", q, a.Op, *a.FrozenRows, *b.FrozenRows)
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i])
		}
	}
	ia, ib := describeInfo(q, db, prep, nil), describeInfo(q, db, fresh, nil)
	walk(ia.Physical, ib.Physical)
	for i := range ia.Subqueries {
		walk(ia.Subqueries[i], ib.Subqueries[i])
	}
}

// TestExplainAfterAppends: EXPLAIN through the cache reports how many appended
// rows the Prepared has been advanced across and which nodes the last
// advance dropped for re-derivation: appending to the right side of a
// difference folds into that side and re-derives the difference; appending
// to the left side folds all the way up.
func TestExplainAfterAppends(t *testing.T) {
	// Four rows each: the appends below stay inside the relations' size
	// classes, which the cache key folds in.
	db, err := raparse.ParseDatabase(strings.NewReader(
		"rel S a b\nrow S s1 t1\nrow S s2 t2\nrow S s3 u3\nrow S s4 u4\nrel T x\nrow T t1\nrow T t5\nrow T t6\nrow T t7\n"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := raparse.ParseQuery("minus(proj(1, S), T)")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPrepCache(0)
	cache.Get(db, q, algebra.ModeNaive, false).Exec(db)
	if text := Describe(q, db, algebra.ModeNaive, false, cache, false).Text(); strings.Contains(text, "advanced:") || strings.Contains(text, "re-derived") {
		t.Errorf("a Prepared that never advanced says it did:\n%s", text)
	}

	db.MustRelation("T").Add(value.Consts("t9"))
	info := Describe(q, db, algebra.ModeNaive, false, cache, false)
	if info.AppendsAbsorbed != 1 || !info.Physical.Rederived || info.Physical.Children[1].Rederived {
		t.Errorf("append to the right side: absorbed %d, diff re-derived %t, scan T re-derived %t",
			info.AppendsAbsorbed, info.Physical.Rederived, info.Physical.Children[1].Rederived)
	}
	for _, want := range []string{"advanced: across 1 appended row(s)\n", "[frozen across worlds]  [re-derived after the last append]"} {
		if text := info.Text(); !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}

	// Used again, the difference is re-derived; then left-side rows fold.
	cache.Get(db, q, algebra.ModeNaive, false).Exec(db)
	db.MustRelation("S").Add(value.Consts("s9", "t9"))
	db.MustRelation("S").Add(value.Consts("s9", "u9"))
	info = Describe(q, db, algebra.ModeNaive, false, cache, false)
	if info.AppendsAbsorbed != 3 || info.Physical.Rederived {
		t.Errorf("appends to the left side: absorbed %d, diff re-derived %t", info.AppendsAbsorbed, info.Physical.Rederived)
	}
	if st := cache.Stats(); st.Advances != 2 || st.Invalidations != 0 {
		t.Errorf("stats %+v, want 2 advances", st)
	}
	assertExplainLikeFresh(t, db, q, cache.Get(db, q, algebra.ModeNaive, false))
}

// BenchmarkAdvance measures one lookup after one single-row append — the
// advance and the execution of the advanced plan — at two relation sizes a
// hundredfold apart. The join folds through both tables and the difference
// folds on its left; none of it walks a relation, so the cost per append
// must not grow with the size (within 2×: hash tables get colder).
func BenchmarkAdvance(b *testing.B) {
	q, err := raparse.ParseQuery("minus(proj(0 3, sel(eq(1, 2), times(Orders, Customers))), Payments)")
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := relation.NewDatabase()
			orders, customers, payments := relation.New("Orders", "oid", "cid"), relation.New("Customers", "cid", "name"), relation.New("Payments", "oid", "name")
			db.Add(orders).Add(customers).Add(payments)
			for i := 0; i < rows; i++ {
				orders.Add(value.Consts(fmt.Sprintf("o%d", i), fmt.Sprintf("c%d", i%(rows/10))))
				if i < rows/10 {
					customers.Add(value.Consts(fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i)))
				}
			}
			cache := NewPrepCache(0)
			cache.Get(db, q, algebra.ModeNaive, false).Frozen()
			// Stay inside the relations' size classes: the plan key folds them in.
			appended := make([]value.Tuple, b.N)
			for i := range appended {
				appended[i] = value.Consts(fmt.Sprintf("new%d", i), fmt.Sprintf("c%d", i%(rows/10)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				orders.Add(appended[i])
				if cache.Get(db, q, algebra.ModeNaive, false).Frozen().Len() == 0 {
					b.Fatal("empty answer")
				}
			}
			b.StopTimer()
			if st := cache.Stats(); st.Invalidations != 0 || st.Advances == 0 {
				b.Fatalf("stats %+v: the benchmark must advance, never re-prepare", st)
			}
		})
	}
}
