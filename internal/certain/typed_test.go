package certain_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/gen"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// exactOracles are the oracles that enumerate the typed space: µᵏ and µ
// stay on the shared range by definition.
var exactOracles = []string{"WithNulls", "Intersection", "Bool", "CertainTuple", "PossibleTuple", "BoxMult", "DiamondMult"}

// probes returns the tuples the tuple oracles are asked about for q: the
// first few naive answers (null-bearing ones included) and a constant tuple
// outside the database.
func probes(db *relation.Database, q algebra.Expr) []value.Tuple {
	var out []value.Tuple
	for _, t := range plan.Naive(db, q).Tuples() {
		if len(out) == 3 {
			break
		}
		out = append(out, t)
	}
	absent := make(value.Tuple, algebra.Arity(q, db))
	for i := range absent {
		absent[i] = value.Const("zz")
	}
	return append(out, absent)
}

// sameUnderSharedRange checks that the exact oracles named (all of them when
// none is) answer q on db alike over the typed space and over the shared
// range, and that the typed space is no larger than the shared one.
func sameUnderSharedRange(t *testing.T, db *relation.Database, q algebra.Expr, names ...string) {
	t.Helper()
	typed, err := certain.NewSpaceForQuery(db, q, certain.Options{})
	if err != nil {
		t.Fatalf("%s: typed space: %v", q, err)
	}
	shared, err := certain.NewSpaceForQuery(db, q, certain.SharedRange(certain.Options{}))
	if err != nil {
		t.Fatalf("%s: shared space: %v", q, err)
	}
	if typed.Size() > shared.Size() {
		t.Errorf("%s: typed space holds %d worlds, shared %d", q, typed.Size(), shared.Size())
	}
	for _, tuple := range probes(db, q) {
		if len(names) == 0 {
			names = exactOracles
		}
		for _, o := range oraclesOver(db, q, nil, tuple, 0, names...) {
			got, gerr := o.run(certain.Options{})
			want, werr := o.run(certain.SharedRange(certain.Options{}))
			if gerr != nil || werr != nil {
				t.Fatalf("%s(%s, %v): typed error %v, shared error %v", o.name, q, tuple, gerr, werr)
			}
			if got != want {
				t.Errorf("%s(%s, %v) = %s over the typed space, %s over the shared range\ndb:\n%s",
					o.name, q, tuple, got, want, db)
			}
		}
	}
}

// TestTypedMatchesSharedOnGenCorpus: random databases and queries from every
// fragment, IN probes included. Long mode triples the corpus.
func TestTypedMatchesSharedOnGenCorpus(t *testing.T) {
	trials := 60
	if !testing.Short() {
		trials = 180
	}
	frags := []gen.Fragment{gen.FragmentUCQ, gen.FragmentPosForallG, gen.FragmentFull}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		db := gen.DB(r, gen.DefaultConfig())
		qcfg := gen.DefaultQueryConfig()
		qcfg.Fragment = frags[trial%len(frags)]
		if trial%2 == 1 {
			qcfg.InSubRate = 0.3
		}
		sameUnderSharedRange(t, db, gen.Query(r, qcfg, 1+trial%2))
	}
}

// TestTypedMatchesSharedOnNullWorlds: the server benchmark's null_worlds
// shape, where every query's space falls from the shared range's 63² or 64²
// worlds to 5² or 6². Queries 1, 2 and 4 read o_orderstatus, which holds
// {O, P} and two nulls here, so each null ranges over those, the query's own
// constant ('O', or 'F' for the tautology of query 2) and three fresh ones.
// The bag bounds are
// left out: they bind every null of the relations read, four for customer,
// and 65⁴ shared worlds exceed MaxWorlds.
func TestTypedMatchesSharedOnNullWorlds(t *testing.T) {
	db, queries := certain.NullWorldsCorpus(t)
	want := []int{36, 25, 36, 36, 25, 36}
	for i, q := range queries {
		sameUnderSharedRange(t, db, q, exactOracles[:5]...)
		if space, err := certain.NewSpaceForQuery(db, q, certain.Options{}); err != nil || space.Size() != want[i] {
			t.Errorf("query %d: typed space %v (%v), want %d worlds", i, space, err, want[i])
		}
	}
}

// TestTypedMatchesSharedOnFigure1: the introduction's orders database and
// its three queries, NOT IN among them.
func TestTypedMatchesSharedOnFigure1(t *testing.T) {
	db := mustDB(t, `rel Orders oid title price
row Orders o1 'Big Data' 30
row Orders o2 SQL 35
row Orders o3 Logic 50
rel Payments cid oid
row Payments c1 o1
row Payments c2 _1
rel Customers cid name
row Customers c1 John
row Customers c2 Mary
`)
	for _, src := range []string{
		"proj(0, sel(not(in(0, proj(1, Payments))), Orders))",
		"proj(0, sel(not(in(0, proj(0, sel(eq(1, 2), times(Payments, proj(0, Orders)))))), Customers))",
		"proj(0, sel(and(eq(0, 2), eq(3, 4)), times(times(Customers, Payments), proj(0, Orders))))",
	} {
		sameUnderSharedRange(t, db, mustQuery(t, src))
	}
}

// TestTypedMatchesSharedOnHandCases covers what the class analysis has to
// get right: pinned order comparisons, a self-join, a null in two columns,
// Dom, IN, minus, union, division, and a join key or a query constant that
// alone brings a class the value refuting a candidate.
func TestTypedMatchesSharedOnHandCases(t *testing.T) {
	db := mustDB(t, `rel R a b
row R 1 2
row R 3 _1
row R _2 5
row R _1 x
rel S c
row S 2
row S _3
row S x
rel T a b
row T 1 y
row T _4 2
`)
	for _, src := range []string{
		"sel(lt(0, 1), R)", // order between columns
		"proj(0, sel(or(ltc(1, '4'), eqc(0, '3')), R))",    // order against a constant
		"proj(0 3, sel(eq(1, 2), times(R, R)))",            // self-join
		"proj(0, sel(eq(0, 1), R))",                        // ⊥1 sits in both columns
		"minus(proj(1, R), S)",                             // minus
		"union(proj(0, R), S)",                             // union
		"proj(0, sel(in(1, S), R))",                        // IN
		"proj(0, sel(not(in(1, S)), R))",                   // NOT IN
		"div(R, S)",                                        // division
		"minus(proj(0, T), proj(1, R))",                    // a class across relations
		"sel(neqc(0, 'y'), minus(proj(1, T), proj(0, R)))", // constant in an aligned class
	} {
		sameUnderSharedRange(t, db, mustQuery(t, src))
	}
	dom := algebra.Minus(algebra.Dom{K: 1}, algebra.Proj(algebra.R("R"), 0))
	sameUnderSharedRange(t, db, dom)
	// A pinned class beside a typed one: ⊥2 ranges over the shared Range.
	small := mustDB(t, "rel T a b\nrow T 1 y\nrow T _1 2\nrow T 7 _2\n")
	sameUnderSharedRange(t, small, mustQuery(t, "sel(gtc(1, '1'), T)"))
	// ⊥1 is certain in each unless its class holds the value that removes
	// it: S's s1 through the join key, the query's own q, or U's 1 < 3.
	tiny := mustDB(t, "rel R a\nrow R _1\nrow R 5\nrel S b\nrow S s1\nrel U x\nrow U 1\n")
	for _, src := range []string{
		"minus(R, proj(0, sel(eq(0, 1), times(R, S))))",
		"minus(R, sel(eqc(0, 'q'), R))",
		"minus(R, sel(ltc(0, '3'), R))",
	} {
		sameUnderSharedRange(t, tiny, mustQuery(t, src))
	}
}

// TestTypedRangeFollowsAppends: appends that bring a new constant, or a new
// null, into a class must reach the column classes kept on the prepared
// plans, which each advance files the appended rows in. π₀(R) − S with
// S = {⊥} is certainly empty once R holds c9 only if ⊥ may be c9, and c1 is
// a possible answer of π₀(R ⋈ S) once R holds (c1, d9) only if ⊥ may be d9:
// classes kept from before the append would make c9 certain and c1
// impossible. Every exact oracle through the advanced entries must answer as
// one prepared afresh.
func TestTypedRangeFollowsAppends(t *testing.T) {
	// Four rows of R and two of S, so that no append moves a relation to
	// another size class and has the entries prepared afresh.
	db := mustDB(t, "rel R a b\nrow R c0 d0\nrow R c2 d2\nrow R c3 d3\nrow R c4 d4\nrel S a\nrow S _1\nrow S s5\n")
	queries := []algebra.Expr{
		algebra.Minus(algebra.Proj(algebra.R("R"), 0), algebra.R("S")),
		algebra.Proj(algebra.Join(algebra.R("R"), algebra.R("S"), algebra.CEq(1, 2)), 0),
	}
	cache := plan.NewPrepCache(32)
	check := func(step string) {
		for _, q := range queries {
			for _, tuple := range []value.Tuple{value.Consts("c1"), value.Consts("c9")} {
				for _, o := range oraclesOver(db, q, nil, tuple, 0, exactOracles...) {
					got, gerr := o.run(certain.Options{Prep: cache})
					want, werr := o.run(certain.Options{})
					if gerr != nil || werr != nil {
						t.Fatalf("%s: %s(%s, %v): %v, %v", step, o.name, q, tuple, gerr, werr)
					}
					if got != want {
						t.Errorf("%s: %s(%s, %v) = %s through the cached plan, %s prepared afresh", step, o.name, q, tuple, got, want)
					}
				}
			}
		}
	}
	check("before the appends")
	db.Relation("R").Add(value.Consts("c9", "d2"))
	db.Relation("R").Add(value.Consts("c1", "d9"))
	check("after appending constants")
	db.Relation("S").Add(value.T(value.Null(2)))
	check("after appending a null")
	if st := cache.Stats(); st.Advances == 0 || st.Misses != uint64(st.Entries) {
		t.Errorf("cache stats %+v: want every entry advanced, none prepared afresh", st)
	}
	for _, q := range queries {
		sameUnderSharedRange(t, db, q)
	}
}

// TestTupleOraclesLeaveCachedClasses: a tuple oracle files the tuple it is
// asked about in a copy of the column classes the prepared plan keeps, so a
// later call on the same entry does not range over that tuple's constants.
func TestTupleOraclesLeaveCachedClasses(t *testing.T) {
	db := mustDB(t, "rel R a\nrow R c1\nrel S a\nrow S _1\n")
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	cache := plan.NewPrepCache(4)
	for _, name := range []string{"CertainTuple", "PossibleTuple", "BoxMult", "DiamondMult"} {
		for _, o := range oraclesOver(db, q, nil, value.Consts("c9"), 0, name) {
			if _, err := o.run(certain.Options{Prep: cache}); err != nil {
				t.Fatal(err)
			}
		}
		// ⊥ ranges over c1 and two fresh constants, not over c9 too.
		if space, err := certain.NewSpaceForQuery(db, q, certain.Options{Prep: cache}); err != nil || space.Size() != 3 {
			t.Errorf("after %s: space %v (%v), want 3 worlds", name, space, err)
		}
	}
}

func mustDB(t *testing.T, text string) *relation.Database {
	t.Helper()
	db, err := raparse.ParseDatabase(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustQuery(t *testing.T, src string) algebra.Expr {
	t.Helper()
	q, err := raparse.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// TestTypedRangesConcurrentFirstUse: goroutines sharing a cold prepared
// plan cache all build and read its column classes and typed ranges at once
// (run under -race), half of them starting with a tuple oracle, which files
// its tuple in a copy of the classes; every one gets the serial answers.
func TestTypedRangesConcurrentFirstUse(t *testing.T) {
	db, queries := certain.NullWorldsCorpus(t)
	want := make([]*relation.Relation, len(queries))
	probe := make([]value.Tuple, len(queries))
	wantTuple := make([]bool, len(queries))
	for i, q := range queries {
		r, err := certain.WithNulls(db, q, certain.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i], probe[i] = r, probes(db, q)[0]
		if wantTuple[i], err = certain.CertainTuple(db, q, probe[i], certain.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	cache := plan.NewPrepCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := certain.Options{Workers: 1, Prep: cache}
			for i, q := range queries {
				tuple := func() {
					if got, err := certain.CertainTuple(db, q, probe[i], opts); err != nil || got != wantTuple[i] {
						t.Errorf("query %d: CertainTuple(%v) = %t (%v), want %t", i, probe[i], got, err, wantTuple[i])
					}
				}
				if g%2 == 1 {
					tuple()
				}
				if got, err := certain.WithNulls(db, q, opts); err != nil || !got.Equal(want[i]) {
					t.Errorf("query %d: %v (%v), want %v", i, got, err, want[i])
				}
				if g%2 == 0 {
					tuple()
				}
			}
		}()
	}
	wg.Wait()
}
