package certain

import (
	"fmt"
	"math/rand"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/gen"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/value"
)

// corpus returns database/query pairs whose valuation spaces are large
// enough (≥ minParallelWorlds) to exercise the sharded paths, plus small
// ones that must fall back to the serial path.
func corpus(t *testing.T) []struct {
	name string
	db   *relation.Database
	q    algebra.Expr
} {
	t.Helper()
	var out []struct {
		name string
		db   *relation.Database
		q    algebra.Expr
	}

	// Hand-built: difference with several nulls on both sides.
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	for i := 0; i < 4; i++ {
		r.Add(value.Consts(fmt.Sprintf("c%d", i)))
	}
	r.Add(value.T(value.Null(1)))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.Consts("c1"))
	s.Add(value.T(value.Null(2)))
	s.Add(value.T(value.Null(3)))
	db.Add(s)
	out = append(out, struct {
		name string
		db   *relation.Database
		q    algebra.Expr
	}{"diff-3nulls", db, algebra.Minus(algebra.R("R"), algebra.R("S"))})

	// Hand-built small space: must take the serial path under any Workers.
	db2 := relation.NewDatabase()
	r2 := relation.New("R", "a")
	r2.Add(value.Consts("x"))
	r2.Add(value.T(value.Null(1)))
	db2.Add(r2)
	out = append(out, struct {
		name string
		db   *relation.Database
		q    algebra.Expr
	}{"tiny", db2, algebra.R("R")})

	// Random instances over the gen schema, full relational algebra.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rdb := gen.DB(rng, gen.Config{MaxTuples: 6, NullRate: 0.4, NullPool: 3, ConstPool: 4})
		q := gen.Query(rng, gen.DefaultQueryConfig(), 1)
		out = append(out, struct {
			name string
			db   *relation.Database
			q    algebra.Expr
		}{fmt.Sprintf("gen-%d", seed), rdb, q})
	}
	return out
}

// nullWorldsCorpus is the server benchmark's null-heavy workload in
// miniature: a 24-tuple TPC-H-like instance with two nulls in each of three
// categorical columns, and six query shapes that each read exactly one of
// those columns — a union, selections with and without a tautology, a join,
// a difference and a three-way join. Between them their roots are fully
// frozen candidates, live Δ candidates, dying Δ candidates and a barrier.
func nullWorldsCorpus(t *testing.T) (*relation.Database, []algebra.Expr) {
	t.Helper()
	db := tpch.Generate(tpch.Config{Customers: 7, OrdersPerCustomer: 1, ItemsPerOrder: 1, Nations: 3, Regions: 2, Seed: 5})
	next := uint64(1)
	for _, dirty := range []struct {
		rel  string
		col  int
		rows [2]int
	}{{"customer", 2, [2]int{1, 4}}, {"customer", 4, [2]int{0, 5}}, {"orders", 3, [2]int{2, 5}}} {
		src := db.Relation(dirty.rel)
		dst := relation.New(src.Name(), src.Attrs()...)
		for i, tuple := range src.Tuples() {
			if i == dirty.rows[0] || i == dirty.rows[1] {
				tuple = tuple.Clone()
				tuple[dirty.col] = value.Null(next)
				next++
			}
			dst.Add(tuple)
		}
		db.Add(dst)
	}
	var queries []algebra.Expr
	for _, src := range []string{
		"union(proj(0, sel(eqc(4, 'BUILDING'), customer)), proj(0, sel(eqc(4, 'MACHINERY'), customer)))",
		"proj(0, sel(or(eqc(3, 'O'), ltc(2, '30000')), orders))",
		"proj(0, sel(or(eqc(3, 'F'), neqc(3, 'F')), orders))",
		"proj(0 5, sel(and(eq(0, 6), neqc(2, 'N0')), times(customer, orders)))",
		"minus(proj(0, customer), proj(1, sel(eqc(3, 'O'), orders)))",
		"proj(0 6, sel(and(eq(2, 5), eq(7, 8)), times(times(customer, nation), region)))",
	} {
		q, err := raparse.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := algebra.Validate(q, db); err != nil {
			t.Fatalf("validate %q: %v", src, err)
		}
		queries = append(queries, q)
	}
	return db, queries
}

// TestParallelOracleMatchesSerial is the oracle-equivalence gate: every
// certainty notion must render byte-identically under the serial reference
// path, under the two-worker pool the server benchmark runs, and under a
// many-worker pool (more workers than this machine has cores, to force real
// sharding).
func TestParallelOracleMatchesSerial(t *testing.T) {
	cases := corpus(t)
	db, queries := nullWorldsCorpus(t)
	for i, q := range queries {
		cases = append(cases, struct {
			name string
			db   *relation.Database
			q    algebra.Expr
		}{fmt.Sprintf("null-worlds-%d", i), db, q})
	}
	for _, tc := range cases {
		for _, workers := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				testParallelMatchesSerial(t, tc.db, tc.q, Options{Workers: 1}, Options{Workers: workers})
			})
		}
	}
}

func testParallelMatchesSerial(t *testing.T, db *relation.Database, q algebra.Expr, serial, parallel Options) {
	sw, err1 := WithNulls(db, q, serial)
	pw, err2 := WithNulls(db, q, parallel)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("WithNulls errs diverge: %v vs %v", err1, err2)
	}
	if err1 == nil && sw.String() != pw.String() {
		t.Errorf("WithNulls diverges:\nserial   %s\nparallel %s", sw, pw)
	}

	si, err1 := Intersection(db, q, serial)
	pi, err2 := Intersection(db, q, parallel)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("Intersection errs diverge: %v vs %v", err1, err2)
	}
	if err1 == nil && si.String() != pi.String() {
		t.Errorf("Intersection diverges:\nserial   %s\nparallel %s", si, pi)
	}

	// Tuple-level checks over every naive candidate plus a miss.
	cands := plan.Naive(db, q).Tuples()
	if arity := algebra.Arity(q, db); arity > 0 {
		miss := make(value.Tuple, arity)
		for i := range miss {
			miss[i] = value.Const("✗absent")
		}
		cands = append(cands, miss)
	}
	for i, tuple := range cands {
		sc, err1 := CertainTuple(db, q, tuple, serial)
		pc, err2 := CertainTuple(db, q, tuple, parallel)
		if (err1 == nil) != (err2 == nil) || sc != pc {
			t.Errorf("CertainTuple[%d] %v: serial %v/%v parallel %v/%v", i, tuple, sc, err1, pc, err2)
		}
		sp, err1 := PossibleTuple(db, q, tuple, serial)
		pp, err2 := PossibleTuple(db, q, tuple, parallel)
		if (err1 == nil) != (err2 == nil) || sp != pp {
			t.Errorf("PossibleTuple[%d] %v: serial %v/%v parallel %v/%v", i, tuple, sp, err1, pp, err2)
		}
		sb, err1 := BoxMult(db, q, tuple, serial)
		pb, err2 := BoxMult(db, q, tuple, parallel)
		if (err1 == nil) != (err2 == nil) || sb != pb {
			t.Errorf("BoxMult[%d] %v: serial %v/%v parallel %v/%v", i, tuple, sb, err1, pb, err2)
		}
		sd, err1 := DiamondMult(db, q, tuple, serial)
		pd, err2 := DiamondMult(db, q, tuple, parallel)
		if (err1 == nil) != (err2 == nil) || sd != pd {
			t.Errorf("DiamondMult[%d] %v: serial %v/%v parallel %v/%v", i, tuple, sd, err1, pd, err2)
		}
	}
}

// TestParallelBoolMatchesSerial checks Boolean certainty on zero-ary
// queries, where the universal search short-circuits across shards.
func TestParallelBoolMatchesSerial(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("c0"))
	r.Add(value.Consts("c1"))
	r.Add(value.T(value.Null(1)))
	r.Add(value.T(value.Null(2)))
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.Consts("c0"))
	s.Add(value.T(value.Null(3)))
	db.Add(s)
	u := relation.New("U", "a")
	u.Add(value.T(value.Null(4)))
	db.Add(u)
	for _, q := range []algebra.Expr{
		algebra.Proj(algebra.R("R")),                                // R has frozen rows: true without enumeration
		algebra.Proj(algebra.R("U")),                                // only Δ rows: true in every world
		algebra.Proj(algebra.Minus(algebra.R("R"), algebra.R("S"))), // uncertain
		algebra.Proj(algebra.Minus(algebra.R("S"), algebra.R("S"))), // certainly false
	} {
		sb, err1 := Bool(db, q, Options{Workers: 1})
		for _, workers := range []int{2, 8} {
			pb, err2 := Bool(db, q, Options{Workers: workers})
			if (err1 == nil) != (err2 == nil) || sb != pb {
				t.Errorf("Bool(%v): serial %v/%v workers=%d %v/%v", q, sb, err1, workers, pb, err2)
			}
		}
	}
}

// TestSpaceEachRangeMatchesEach pins the shard enumeration to the serial
// order: concatenating disjoint ranges must reproduce Each exactly.
func TestSpaceEachRangeMatchesEach(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(value.Null(1), value.Const("x")))
	r.Add(value.T(value.Null(2), value.Null(3)))
	db.Add(r)
	space, err := NewSpace(db, []value.Value{value.Const("qc")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var full []string
	space.Each(func(v value.Valuation) bool { full = append(full, v.String()); return true })
	if len(full) != space.Size() {
		t.Fatalf("Each visited %d, Size() = %d", len(full), space.Size())
	}
	var pieces []string
	step := space.Size()/7 + 1
	for lo := 0; lo < space.Size(); lo += step {
		hi := lo + step
		if hi > space.Size() {
			hi = space.Size()
		}
		space.EachRange(lo, hi, func(v value.Valuation) bool { pieces = append(pieces, v.String()); return true })
	}
	for i := range full {
		if pieces[i] != full[i] {
			t.Fatalf("valuation %d: range %s vs full %s", i, pieces[i], full[i])
		}
	}
}

// TestWorkerPoolStress hammers the sharded cert⊥ path; it exists chiefly to
// give `go test -race` a workload over the worker pool and the shared
// read-only database.
func TestWorkerPoolStress(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	for i := 0; i < 5; i++ {
		r.Add(value.Consts(fmt.Sprintf("c%d", i)))
	}
	db.Add(r)
	s := relation.New("S", "a")
	s.Add(value.T(value.Null(1)))
	s.Add(value.T(value.Null(2)))
	s.Add(value.T(value.Null(3)))
	db.Add(s)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	want, err := WithNulls(db, q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := WithNulls(db, q, Options{Workers: 16})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("iteration %d diverged: %s vs %s", i, got, want)
		}
	}
}
