package plan

import (
	"fmt"
	"sync"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// guardDB builds a database with one null-bearing relation (R), one
// null-free relation (S, freezable) and one relation the test queries never
// read (U).
func guardDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.Consts("k1", "v1"))
	r.Add(value.T(value.Const("k2"), db.FreshNull()))
	db.Add(r)
	s := relation.New("S", "a", "c")
	s.Add(value.Consts("k1", "w1"))
	s.Add(value.Consts("k2", "w2"))
	db.Add(s)
	u := relation.New("U", "x")
	u.Add(value.Consts("z"))
	db.Add(u)
	return db
}

func TestPreparedValidFor(t *testing.T) {
	db := guardDB()
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 2))
	prep := PlanFor(q, db, algebra.ModeNaive, false).Prepare(db)

	if !prep.ValidFor(db) {
		t.Fatal("fresh Prepared invalid for its own base")
	}
	// Mutating a relation the plan does not read keeps the guard intact.
	db.MustRelation("U").Add(value.Consts("zz"))
	if !prep.ValidFor(db) {
		t.Fatal("mutating an unread relation invalidated the Prepared")
	}
	// Mutating a read relation moves its version and fails the guard.
	db.MustRelation("S").Add(value.Consts("k3", "w3"))
	if prep.ValidFor(db) {
		t.Fatal("mutating a read relation left the Prepared valid")
	}

	// Replacing a read relation wholesale (same contents, new object) also
	// fails the guard: frozen results alias the old object's rows.
	db2 := guardDB()
	prep2 := PlanFor(q, db2, algebra.ModeNaive, false).Prepare(db2)
	db2.Add(db2.MustRelation("S").Clone())
	if prep2.ValidFor(db2) {
		t.Fatal("replacing a read relation left the Prepared valid")
	}
}

func TestPreparedValidForDom(t *testing.T) {
	db := guardDB()
	q := algebra.Minus(algebra.DomK(1), algebra.Proj(algebra.R("R"), 0))
	prep := PlanFor(q, db, algebra.ModeNaive, false).Prepare(db)
	if !prep.ValidFor(db) {
		t.Fatal("fresh Prepared invalid for its own base")
	}
	// Dom reads the whole active domain: mutating any relation — even one
	// the algebra never names — invalidates.
	db.MustRelation("U").Add(value.Consts("fresh-const"))
	if prep.ValidFor(db) {
		t.Fatal("Dom plan survived a mutation extending the active domain")
	}

	// Adding a new relation extends the catalogue, so it invalidates too.
	db2 := guardDB()
	prep2 := PlanFor(q, db2, algebra.ModeNaive, false).Prepare(db2)
	fresh := relation.New("V", "x")
	fresh.Add(value.Consts("new"))
	db2.Add(fresh)
	if prep2.ValidFor(db2) {
		t.Fatal("Dom plan survived a catalogue extension")
	}
}

// TestPrepCacheReuseAndInvalidation drives the cache the way a session
// does: repeated queries hit, an append to a touched relation advances
// exactly the entries reading it (a hit and an advance, nothing dropped), a
// removal drops them, and results always match fresh evaluation.
func TestPrepCacheReuseAndInvalidation(t *testing.T) {
	db := guardDB()
	c := NewPrepCache(8)
	qRS := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 2))
	qU := algebra.Proj(algebra.R("U"), 0)

	check := func(q algebra.Expr) {
		t.Helper()
		got := c.Get(db, q, algebra.ModeNaive, false).Exec(db)
		want := PlanFor(q, db, algebra.ModeNaive, false).Exec(db)
		if !got.Equal(want) {
			t.Fatalf("cached result differs from fresh evaluation:\n%s\nvs\n%s", got, want)
		}
	}

	check(qRS)
	check(qRS)
	check(qU)
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Invalidations != 0 || st.Entries != 2 {
		t.Fatalf("after warmup: %+v, want 2 misses / 1 hit / 0 invalidations / 2 entries", st)
	}

	// Append to S: the R⋈S entry is advanced, the U entry is untouched.
	db.MustRelation("S").Add(value.Consts("k1", "w9"))
	check(qRS)
	check(qU)
	st = c.Stats()
	if st.Advances != 1 || st.Invalidations != 0 || st.Misses != 2 {
		t.Fatalf("appending to S: %+v, want exactly 1 advance (the R⋈S entry) and nothing dropped", st)
	}
	if st.Hits != 3 {
		t.Fatalf("appending to S: hits = %d, want 3 (the advanced entry and the U entry both hit)", st.Hits)
	}

	// Remove the row again: no append log covers that, so the entry is
	// dropped and prepared afresh — and serves hits again afterwards.
	db.MustRelation("S").SetMult(value.Consts("k1", "w9"), 0)
	check(qRS)
	check(qRS)
	st = c.Stats()
	if st.Invalidations != 1 || st.Advances != 1 || st.Hits != 4 {
		t.Fatalf("removing from S: %+v, want 1 invalidation, still 1 advance, 4 hits", st)
	}
}

func TestPrepCacheEviction(t *testing.T) {
	db := guardDB()
	c := NewPrepCache(2)
	qs := []algebra.Expr{
		algebra.Proj(algebra.R("R"), 0),
		algebra.Proj(algebra.R("S"), 0),
		algebra.Proj(algebra.R("U"), 0),
	}
	for _, q := range qs {
		c.Get(db, q, algebra.ModeNaive, false)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("capacity 2 cache holds %d entries", st.Entries)
	}
	// The least recently used entry (qs[0]) was evicted: using it again is
	// a miss; qs[2] stays cached.
	before := c.Stats()
	c.Get(db, qs[0], algebra.ModeNaive, false)
	c.Get(db, qs[2], algebra.ModeNaive, false)
	st := c.Stats()
	if st.Misses != before.Misses+1 || st.Hits != before.Hits+1 {
		t.Fatalf("eviction order wrong: before %+v after %+v", before, st)
	}
}

// TestPrepCacheWorldEvalMatchesFresh replays the oracle world loop through
// a shared cache: per-world results must be byte-identical to a fresh
// Prepare, across repeated calls and across a mutation.
func TestPrepCacheWorldEvalMatchesFresh(t *testing.T) {
	db := guardDB()
	c := NewPrepCache(8)
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 2))

	for round := 0; round < 3; round++ {
		cached := c.Get(db, q, algebra.ModeNaive, false).Runner(nil)
		fresh := PlanFor(q, db, algebra.ModeNaive, false).Prepare(db).Runner(nil)
		for i, cst := range []string{"k1", "k2", "other"} {
			v := value.NewValuation()
			v.Set(1, value.Const(cst))
			got, want := cached.Eval(v).Result().Relation(), fresh.Eval(v).Result().Relation()
			if !got.Equal(want) || !got.Equal(algebra.EvalInterp(db.Apply(v), q, algebra.ModeNaive)) {
				t.Fatalf("round %d world %d: cached %s want %s", round, i, got, want)
			}
		}
		cached.Close()
		fresh.Close()
		if round == 1 {
			// Mid-test append: the next round runs on the advanced entry.
			db.MustRelation("S").Add(value.Consts("k2", "w9"))
		}
	}
	st := c.Stats()
	if st.Advances != 1 || st.Invalidations != 0 {
		t.Fatalf("append did not advance the entry: %+v", st)
	}
}

// TestPrepCacheConcurrent exercises concurrent Get/Exec on one cache (run
// under -race): many goroutines share entries while verifying results.
func TestPrepCacheConcurrent(t *testing.T) {
	db := guardDB()
	c := NewPrepCache(8)
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 2))
	want := PlanFor(q, db, algebra.ModeNaive, false).Exec(db)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got := c.Get(db, q, algebra.ModeNaive, false).Exec(db)
				if !got.Equal(want) {
					t.Error("concurrent cached result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// scanOrder returns the base-relation names in DFS order — for a left-deep
// join tree, probe side first, then each build side in join order.
func scanOrder(n pnode) []string {
	if s, ok := n.(*pscan); ok {
		return []string{s.name}
	}
	var out []string
	for _, c := range children(n) {
		out = append(out, scanOrder(c)...)
	}
	return out
}

// TestPlanCacheStatsEpochFlip proves the physical plan cache folds the
// statistics epoch into its key: growth inside a log₂ cardinality class
// reuses the cached plan, while growing a relation past a class boundary —
// where the cost-based join order flips — compiles a fresh plan with the
// new order. Relation names are unique to this test because the plan cache
// is process-wide.
func TestPlanCacheStatsEpochFlip(t *testing.T) {
	db := relation.NewDatabase()
	a := relation.New("EpochA", "k", "v")
	a.Add(value.Consts("c0", "a0"))
	a.Add(value.Consts("c1", "a1"))
	db.Add(a)
	b := relation.New("EpochB", "k", "v")
	for i := 0; i < 40; i++ {
		b.Add(value.T(value.Const("c"+string(rune('0'+i%4))), value.Int(i)))
	}
	db.Add(b)
	q := algebra.Sel(algebra.Times(algebra.R("EpochA"), algebra.R("EpochB")), algebra.CEq(0, 2))

	p1 := PlanFor(q, db, algebra.ModeNaive, false)
	if p2 := PlanFor(q, db, algebra.ModeNaive, false); p2 != p1 {
		t.Fatal("identical epoch did not reuse the cached plan")
	}
	if got := scanOrder(p1.root); len(got) != 2 || got[0] != "EpochB" || got[1] != "EpochA" {
		t.Fatalf("initial plan should probe EpochB and build tiny EpochA, got scan order %v", got)
	}

	// Growth inside the log₂ class (2 → 3 rows, both epoch 2): same plan.
	a.Add(value.Consts("c2", "a2"))
	if p := PlanFor(q, db, algebra.ModeNaive, false); p != p1 {
		t.Fatal("growth inside the epoch class recompiled the plan")
	}

	// Growth past the flip point: EpochA at 60 rows dwarfs EpochB, the
	// epoch moves 2 → 6, and the fresh compile must flip build/probe.
	for i := 0; i < 57; i++ {
		a.Add(value.T(value.Const("c"+string(rune('0'+i%4))), value.Int(100+i)))
	}
	p3 := PlanFor(q, db, algebra.ModeNaive, false)
	if p3 == p1 {
		t.Fatal("growth past the epoch flip point reused the stale plan")
	}
	if got := scanOrder(p3.root); len(got) != 2 || got[0] != "EpochA" || got[1] != "EpochB" {
		t.Fatalf("post-flip plan should probe EpochA and build EpochB, got scan order %v", got)
	}

	// Both plans remain exact on the grown database.
	want := algebra.EvalInterp(db, q, algebra.ModeNaive)
	if !p1.Exec(db).Equal(want) || !p3.Exec(db).Equal(want) {
		t.Fatal("epoch-keyed plans diverge from the interpreter")
	}
}

func TestNilPrepCache(t *testing.T) {
	db := guardDB()
	var c *PrepCache
	q := algebra.Proj(algebra.R("S"), 0)
	got := c.Get(db, q, algebra.ModeNaive, false).Exec(db)
	want := PlanFor(q, db, algebra.ModeNaive, false).Exec(db)
	if !got.Equal(want) {
		t.Fatal("nil cache result differs from fresh evaluation")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// decisionDB is the instance TestCatchUpDecisions mutates: R (1100 rows, so
// that even a log overrun stays inside its log₂ size class), S (5 rows, the
// join's build side) and U (read by no query but Dom's); no nulls at all.
func decisionDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	for i := 0; i < 1100; i++ {
		r.Add(value.Consts(fmt.Sprintf("r%d", i), fmt.Sprintf("k%d", i%5)))
	}
	s := relation.New("S", "a", "c")
	for i := 0; i < 5; i++ {
		s.Add(value.Consts(fmt.Sprintf("k%d", i), fmt.Sprintf("w%d", i)))
	}
	u := relation.New("U", "x")
	u.Add(value.Consts("z"))
	return db.Add(r).Add(s).Add(u)
}

// TestCatchUpDecisions pins what catching a Prepared up decides after each
// kind of mutation, and that a PrepCache lookup counts the same outcome:
// current (a hit), advanced (a hit and an advance) or stale (an
// invalidation: dropped and prepared afresh). A relation that moves to
// another size class changes the lookup's key, so the lookup is a miss
// whatever catchUp would decide. A refactor that advances less often still
// answers right, so only a test of the decisions catches it.
func TestCatchUpDecisions(t *testing.T) {
	const join = "sel(eq(1, 2), times(R, S))"
	appendRows := func(name string, n int) func(db *relation.Database) *relation.Database {
		return func(db *relation.Database) *relation.Database {
			rel := db.MustRelation(name)
			for i := 0; i < n; i++ {
				rel.Add(value.Consts(fmt.Sprintf("new%d", i), fmt.Sprintf("k%d", i%5))[:rel.Arity()])
			}
			return db
		}
	}
	rRow := value.Consts("r7", "k2")
	for _, tc := range []struct {
		name   string
		q      string
		mutate func(db *relation.Database) *relation.Database
		want   catchUpResult
	}{
		{"guards hold", join, func(db *relation.Database) *relation.Database { return db }, prepCurrent},
		{"an unread relation grows", join, appendRows("U", 1), prepCurrent},
		{"a null-free append to the probe side", join, appendRows("R", 1), prepAdvanced},
		{"a null-free append to the build side", join, appendRows("S", 2), prepAdvanced},
		// S grows from 5 rows to 8, into the next log₂ size class: catchUp
		// could advance, but the cache key folds the class in.
		{"growth across a size class", join, appendRows("S", 3), prepAdvanced},
		{"a first template for a null-free scan", join, func(db *relation.Database) *relation.Database {
			db.MustRelation("R").Add(value.T(value.Const("r-null"), db.FreshNull()))
			return db
		}, prepStale},
		// U keeps an append log, as it does when another plan reads it.
		{"an append under a Dom plan", "minus(dom(1), proj(0, S))", func(db *relation.Database) *relation.Database {
			db.Pin([]string{"U"})
			return appendRows("U", 1)(db)
		}, prepStale},
		{"a null reaching Dom over a complete base", "minus(dom(1), proj(0, S))", func(db *relation.Database) *relation.Database {
			db.MustRelation("U").Add(value.T(db.FreshNull()))
			return db
		}, prepStale},
		{"SetMult", join, func(db *relation.Database) *relation.Database {
			db.MustRelation("R").SetMult(rRow, 2)
			return db
		}, prepStale},
		{"a subtracting AddMult", join, func(db *relation.Database) *relation.Database {
			db.MustRelation("R").AddMult(rRow, -1)
			return db
		}, prepStale},
		{"Normalize", join, func(db *relation.Database) *relation.Database {
			db.MustRelation("R").Normalize()
			return db
		}, prepStale},
		{"RestoreVersion", join, func(db *relation.Database) *relation.Database {
			r := db.MustRelation("R")
			r.RestoreVersion(r.Version() + 5)
			return db
		}, prepStale},
		{"another database", join, func(db *relation.Database) *relation.Database { return db.Clone() }, prepStale},
		{"more appends than the log holds", join, appendRows("R", 300), prepStale},
	} {
		q, err := raparse.ParseQuery(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		// Straight through catchUp, on a Prepared whose artifacts are built.
		db := decisionDB()
		prep := PlanFor(q, db, algebra.ModeNaive, false).Prepare(db)
		prep.Exec(db)
		if got := prep.catchUp(tc.mutate(db)); got != tc.want {
			t.Errorf("%s: catchUp = %v, want %v", tc.name, got, tc.want)
		}
		// Through a PrepCache: the counters must tell the same story.
		db = decisionDB()
		c := NewPrepCache(0)
		c.Get(db, q, algebra.ModeNaive, false).Exec(db)
		before := c.Stats()
		key, _ := cacheKey(q, db, algebra.ModeNaive, false)
		db = tc.mutate(db)
		got := c.Get(db, q, algebra.ModeNaive, false).Exec(db)
		if want := algebra.EvalInterp(db, q, algebra.ModeNaive); !want.Equal(got) {
			t.Errorf("%s: cached answer %v, interpreter %v", tc.name, got, want)
		}
		st := c.Stats()
		d := CacheStats{Hits: st.Hits - before.Hits, Misses: st.Misses - before.Misses, Advances: st.Advances - before.Advances, Invalidations: st.Invalidations - before.Invalidations}
		want := map[catchUpResult]CacheStats{
			prepCurrent:  {Hits: 1},
			prepAdvanced: {Hits: 1, Advances: 1},
			prepStale:    {Invalidations: 1},
		}[tc.want]
		if now, _ := cacheKey(q, db, algebra.ModeNaive, false); now != key {
			want = CacheStats{Misses: 1}
		}
		if d != want {
			t.Errorf("%s: counters moved by %+v, want %+v", tc.name, d, want)
		}
	}
}

// TestPrepCacheAcrossSizeClasses: when an append moves a relation into
// another log₂ size class, the lookup misses and the plan the cost model
// picks for the new sizes is prepared afresh, whether the join order stays
// or flips, and replaces the entry for the old classes (the
// TestPlanCacheStatsEpochFlip shape; relation names are unique to this test
// because the plan cache is process-wide).
func TestPrepCacheAcrossSizeClasses(t *testing.T) {
	db := relation.NewDatabase()
	a := relation.New("ClassA", "k", "v")
	a.Add(value.Consts("c0", "a0"))
	a.Add(value.Consts("c1", "a1"))
	b := relation.New("ClassB", "k", "v")
	for i := 0; i < 40; i++ {
		b.Add(value.T(value.Const(fmt.Sprintf("c%d", i%4)), value.Int(i)))
	}
	db.Add(a).Add(b)
	q := algebra.Sel(algebra.Times(algebra.R("ClassA"), algebra.R("ClassB")), algebra.CEq(0, 2))
	c := NewPrepCache(0)
	lookup := func(step string, want CacheStats) *Prepared {
		t.Helper()
		before := c.Stats()
		prep := c.Get(db, q, algebra.ModeNaive, false)
		if got, want := prep.Exec(db), algebra.EvalInterp(db, q, algebra.ModeNaive); !want.Equal(got) {
			t.Fatalf("%s: cached answer %v, interpreter %v", step, got, want)
		}
		st := c.Stats()
		if d := (CacheStats{Hits: st.Hits - before.Hits, Misses: st.Misses - before.Misses, Advances: st.Advances - before.Advances, Invalidations: st.Invalidations - before.Invalidations}); d != want {
			t.Fatalf("%s: counters moved by %+v, want %+v", step, d, want)
		}
		return prep
	}
	lookup("first", CacheStats{Misses: 1})
	// 2 → 5 rows: two classes up, and ClassB is still the one to probe.
	for i := 0; i < 3; i++ {
		a.Add(value.Consts(fmt.Sprintf("c%d", i), fmt.Sprintf("a%d", 2+i)))
	}
	prep := lookup("same order", CacheStats{Misses: 1})
	if got := scanOrder(prep.p.root); got[0] != "ClassB" {
		t.Fatalf("scan order %v, want ClassB probed", got)
	}
	// 5 → 60 rows: ClassA now dwarfs ClassB and the join order flips.
	for i := 0; i < 55; i++ {
		a.Add(value.T(value.Const(fmt.Sprintf("c%d", i%4)), value.Int(100+i)))
	}
	prep = lookup("flipped order", CacheStats{Misses: 1})
	if got := scanOrder(prep.p.root); got[0] != "ClassA" {
		t.Fatalf("scan order %v after the flip, want ClassA probed", got)
	}
	lookup("after the flip", CacheStats{Hits: 1})
	// Each miss replaced the entry for the old classes.
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("%d entries after two class crossings, want 1", n)
	}
}
