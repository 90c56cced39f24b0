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

// deltaData is built to hit every corner of the (frozen, Δ) split: ⊥1
// repeats inside R and across R and S; U's only null sits in a column most
// queries prune; (k1, ⊥4) collapses onto the frozen row (k1, u1) under one
// valuation; V is null-free.
const deltaData = `
rel R a b
row R k1 v1
row R k2 _1
row R _2 v1
row R k1 _1
row R k3 v3
rel S a c
row S k1 w1
row S k2 _1
row S k2 w2
rel T x
row T k1
row T _3
row T w1
rel U a b
row U k1 _4
row U k2 u2
row U k1 u1
rel V x
row V k1
row V k2
row V v1
`

// deltaQueries names, per query, what it is there to exercise.
var deltaQueries = []string{
	"R",          // bare relation: output named and attributed like the source
	"proj(0, U)", // nulls only in a pruned column: frozen across worlds
	"proj(1, U)", // a Δ row that collapses onto a frozen row
	"sel(eqc(1, 'v1'), R)",
	"proj(0, sel(or(eqc(1, 'v1'), neqc(1, 'v1')), R))",
	"union(proj(0, R), T)",
	"union(R, R)",
	"inter(proj(0, R), T)", // distributes under sets, a barrier under bags
	"inter(T, proj(0, R))",
	"sel(eq(0, 2), times(R, S))",                 // both inputs vary: all three Δ terms
	"proj(1 3, sel(eq(0, 2), times(R, S)))",      // projection folded into the join
	"sel(eq(1, 3), times(R, R))",                 // self-join
	"sel(eq(0, 2), times(R, V))",                 // frozen build side
	"sel(eq(0, 1), times(V, T))",                 // frozen probe side: Δr probes the table over Fl
	"times(T, T)",                                // keyless join
	"sel(and(eq(0, 2), neq(1, 3)), times(R, S))", // residual
	"minus(proj(0, R), V)",                       // frozen right side: distributes under sets
	"minus(V, proj(0, R))",                       // varying right side: barrier
	"minus(proj(0, R), T)",
	"minus(minus(V, T), proj(0, S))", // a barrier feeding a barrier
	"proj(0, minus(R, S))",           // a projection above a barrier
	"div(R, T)",
	"div(R, proj(0, sel(eqc(0, 'v1'), V)))",
	"sel(in(0, T), V)",                   // filter over a varying IN: barrier on a frozen input
	"sel(not(in(0, proj(0, S))), R)",     // frozen subquery under a varying input
	"sel(not(in(1, T)), R)",              // both vary
	"sel(in(0 1, S), R)",                 // two-column probe
	"sel(in(0 1, R), times(V, T))",       // an IN conjunct across join inputs guards the top
	"sel(or(in(0, T), eqc(0, 'k2')), V)", // IN under a connective
	// An ∧ holding an IN under ∨.
	"sel(or(and(in(0, T), eqc(1, 'v1')), eqc(1, 'v3')), R)",
	// Textually identical IN subqueries share one subplan, so a nested IN may
	// reuse a subplan compiled before the one that encloses it, in either
	// order, at any depth, varying or frozen.
	"sel(in(0, sel(in(0, T), V)), V)",
	"sel(and(in(0, T), in(0, sel(in(0, T), V))), V)",
	"sel(and(in(0, sel(in(0, T), V)), in(0, T)), V)",
	"sel(and(in(0, T), in(0, sel(in(0, sel(in(0, T), V)), proj(0, R)))), V)",
	"sel(and(in(0, sel(in(0, T), V)), in(0, sel(not(in(0, sel(in(0, T), V))), proj(0, R)))), T)",
	"sel(and(in(0, V), in(0, sel(in(0, V), T))), proj(0, R))",
	"sel(and(in(0 1, S), in(0 1, sel(in(0 1, S), R))), R)",
	"dom(1)",
	"sel(eq(0, 1), dom(2))",
	"minus(dom(1), T)",
}

// deltaExprs are the corpus entries the text syntax cannot spell.
func deltaExprs() []algebra.Expr {
	return []algebra.Expr{
		algebra.AntiJoin(algebra.R("R"), algebra.R("S")),                  // varying right side: barrier
		algebra.AntiJoin(algebra.Proj(algebra.R("R"), 0), algebra.R("V")), // frozen right side: distributes
		algebra.AntiJoin(algebra.R("V"), algebra.R("T")),
	}
}

// checkDelta asserts, for q on db under both modes and both semantics, that
// for the identity valuation and for every valuation of db's nulls into rng
//
//	delta exec(v) ≡ Plan.Exec(v(D)) ≡ interpreter(v(D), q)
//
// with exact multiplicities, and records which node kinds it saw distribute
// and which it saw as barriers.
func checkDelta(t *testing.T, db *relation.Database, q algebra.Expr, rng []value.Value, seen map[string]bool) {
	t.Helper()
	ids := db.NullIDs()
	for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
		for _, bag := range []bool{false, true} {
			interp := algebra.EvalInterp
			if bag {
				interp = algebra.EvalBagInterp
			}
			p := compile(q, db, mode, bag)
			prep := p.Prepare(db)
			for _, plan := range append([]*Plan{p}, p.subs...) {
				ps := prep.stateOf(plan)
				for id := range ps.nodes {
					if st := &ps.nodes[id]; st.varying {
						seen[fmt.Sprintf("%T barrier=%t", plan.nodes[id], st.barrier)] = true
					}
				}
			}
			run := prep.Runner(nil)
			check := func(v value.Valuation) bool {
				world := db.Apply(v)
				want := interp(world, q, mode)
				if got := run.Eval(v).Result().Relation(); !want.Equal(got) {
					t.Errorf("%s %v bag=%t v=%v: delta exec = %v, interpreter = %v", q, mode, bag, v, got, want)
					return false
				}
				if got := p.Exec(world); !want.Equal(got) {
					t.Errorf("%s %v bag=%t v=%v: Plan.Exec = %v, interpreter = %v", q, mode, bag, v, got, want)
					return false
				}
				return true
			}
			if check(nil) {
				rngs := value.Uniform(len(ids), rng)
				value.EnumValuations(ids, rngs, 0, value.EnumSize(rngs), check)
			}
			run.Close()
		}
	}
}

func TestDeltaExecMatchesWorldExec(t *testing.T) {
	db, err := raparse.ParseDatabase(strings.NewReader(deltaData))
	if err != nil {
		t.Fatal(err)
	}
	exprs := deltaExprs()
	for _, src := range deltaQueries {
		q, err := raparse.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		exprs = append(exprs, q)
	}
	// Enough of the range to hit equalities with frozen rows (k1, v1, w1,
	// u1), a constant joining nothing much (k2) and a fresh one.
	rng := append(value.Consts("k1", "k2", "v1", "w1", "u1"), value.Const("⁑fresh"))
	seen := map[string]bool{}
	for _, q := range exprs {
		checkDelta(t, db, q, rng, seen)
	}
	for _, want := range []string{
		"*plan.pscan barrier=false", "*plan.pfilter barrier=false", "*plan.pproject barrier=false",
		"*plan.punion barrier=false", "*plan.pjoin barrier=false", "*plan.pinter barrier=false",
		"*plan.pdiff barrier=false", "*plan.pantiunify barrier=false", "*plan.pdistinct barrier=false",
		"*plan.pdiff barrier=true", "*plan.pantiunify barrier=true", "*plan.pdivide barrier=true",
		"*plan.pinter barrier=true", "*plan.pdom barrier=true", "*plan.pfilter barrier=true",
	} {
		if !seen[want] {
			t.Errorf("corpus never exercised %s", want)
		}
	}

	// Nulls that sit only in pruned columns do not make a scan vary.
	q, _ := raparse.ParseQuery("proj(0, U)")
	p := compile(q, db, algebra.ModeNaive, false)
	if prep := p.Prepare(db); prep.stateOf(p).nodes[p.root.base().id].varying || len(prep.NullIDs()) != 0 {
		t.Errorf("proj(0, U) reads no null column: must be frozen across worlds with no relevant nulls, got ids %v", prep.NullIDs())
	}
}

// TestDeltaExecMatchesWorldExecRandom runs the same property over random
// internal/gen instances and queries: full relational algebra with IN
// subqueries, and the Pos∀G fragment for division.
func TestDeltaExecMatchesWorldExecRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1207))
	cfg := gen.DefaultConfig()
	full := gen.DefaultQueryConfig()
	full.InSubRate = 0.2
	div := gen.DefaultQueryConfig()
	div.Fragment = gen.FragmentPosForallG
	rng := []value.Value{gen.ConstOf(0), gen.ConstOf(1), gen.ConstOf(2), value.Const("⁑fresh")}
	seen := map[string]bool{}
	for trial := 0; trial < 60; trial++ {
		db := gen.DB(r, cfg)
		qcfg := full
		if trial%4 == 3 {
			qcfg = div
		}
		checkDelta(t, db, gen.Query(r, qcfg, 1+trial%2), rng, seen)
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

// TestPreparedSharedAcrossLazyBuilds: one Prepared, never executed before,
// hit by eight goroutines at once — they race to build the frozen root, the
// join tables on both sides, the consolidated barrier inputs and the
// subquery — and every world must still come out right (run under -race).
func TestPreparedSharedAcrossLazyBuilds(t *testing.T) {
	db, err := raparse.ParseDatabase(strings.NewReader(deltaData))
	if err != nil {
		t.Fatal(err)
	}
	q, err := raparse.ParseQuery("minus(proj(0 3, sel(and(eq(0, 2), not(in(1, T))), times(R, S))), times(V, T))")
	if err != nil {
		t.Fatal(err)
	}
	ids := db.NullIDs()
	rngs := value.Uniform(len(ids), append(value.Consts("k1", "k2", "v1", "w1"), value.Const("⁑fresh")))
	size := value.EnumSize(rngs)
	want := make([]*relation.Relation, size)
	i := 0
	value.EnumValuations(ids, rngs, 0, size, func(v value.Valuation) bool {
		want[i] = algebra.EvalInterp(db.Apply(v), q, algebra.ModeNaive)
		i++
		return true
	})
	for round := 0; round < 5; round++ {
		prep := compile(q, db, algebra.ModeNaive, false).Prepare(db)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				run := prep.Runner(nil)
				defer run.Close()
				// Each goroutine starts somewhere else in the space, so the
				// first Δ each lazy table sees differs.
				lo := g * size / 8
				i := lo
				value.EnumValuations(ids, rngs, lo, size, func(v value.Valuation) bool {
					if got := run.Eval(v).Result().Relation(); !want[i].Equal(got) {
						t.Errorf("goroutine %d world %d: got %v want %v", g, i, got, want[i])
						return false
					}
					i++
					return true
				})
			}(g)
		}
		wg.Wait()
	}
}

// TestNoFrozenClassification: a node whose frozen part is empty whatever
// the data — a barrier, or a distributing node above inputs without frozen
// rows — is marked, so the frozen phase skips it and nothing is built to
// probe it; a one-shot execution takes the degenerate partition, where that
// is every node.
func TestNoFrozenClassification(t *testing.T) {
	db, err := raparse.ParseDatabase(strings.NewReader(deltaData))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want bool // root's noFrozen under Prepare
	}{
		{"minus(V, proj(0, R))", true},                               // barrier
		{"proj(0, minus(R, S))", true},                               // above a barrier
		{"sel(eq(0, 1), times(minus(V, proj(0, R)), V))", true},      // a join with one such input
		{"union(minus(V, proj(0, R)), V)", false},                    // a union keeps the other input's frozen rows
		{"union(minus(V, proj(0, R)), minus(V, T))", true},           // unless it has none either
		{"inter(V, minus(V, T))", true},                              // intersection: either input
		{"minus(minus(V, T), V)", true},                              // distributing difference: its left input
		{"sel(eq(0, 2), times(R, S))", false},                        // plain varying join
		{"sel(in(0, sel(in(0, T), V)), minus(V, proj(0, R)))", true}, // barrier filter over a barrier
	} {
		q, err := raparse.ParseQuery(tc.q)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		p := compile(q, db, algebra.ModeNaive, false)
		if got := p.Prepare(db).main.nodes[p.root.base().id].noFrozen; got != tc.want {
			t.Errorf("%s: root noFrozen = %t, want %t", tc.q, got, tc.want)
		}
		once := p.prepare(db, source{identity: true})
		for _, plan := range append([]*Plan{p}, p.subs...) {
			for id := range plan.nodes {
				if !once.stateOf(plan).nodes[id].noFrozen {
					t.Errorf("%s: one-shot node %T keeps a frozen part", tc.q, plan.nodes[id])
				}
			}
		}
		x := acquire(p, once, nil, true)
		if x.frozenRel(p, p.root) != nil {
			t.Errorf("%s: one-shot root has a frozen relation", tc.q)
		}
		x.release()
	}
}
