package plan

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/gen"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

func testDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.Consts("k1", "v1"))
	r.Add(value.Consts("k2", "v2"))
	r.Add(value.T(value.Const("k3"), db.FreshNull()))
	db.Add(r)
	s := relation.New("S", "a", "c")
	s.Add(value.Consts("k1", "w1"))
	s.Add(value.Consts("k2", "w2"))
	db.Add(s)
	t := relation.New("T", "x")
	t.Add(value.Consts("w1"))
	db.Add(t)
	return db
}

func TestOptimizePushesConjunctsThroughProduct(t *testing.T) {
	db := testDB()
	// σ_{#0=#2 ∧ #1=v1 ∧ #3=w1}(R × S): the per-side conjuncts must sink
	// into their inputs, the cross conjunct must stay above the product.
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")),
		algebra.CAnd(algebra.CEq(0, 2),
			algebra.CAnd(algebra.CEqC(1, value.Const("v1")), algebra.CEqC(3, value.Const("w1")))))
	opt := Optimize(q, db).String()
	want := "σ[#0=#2]((σ[#1=v1](R) × σ[#1=w1](S)))"
	if opt != want {
		t.Fatalf("Optimize = %s, want %s", opt, want)
	}
}

func TestOptimizePushesThroughUnionAndProjection(t *testing.T) {
	db := testDB()
	q := algebra.Sel(algebra.Un(algebra.Proj(algebra.R("R"), 1, 0), algebra.R("S")),
		algebra.CEqC(1, value.Const("k1")))
	opt := Optimize(q, db).String()
	// The condition re-indexes through the projection (#1 → column 0 of R)
	// and distributes into both union branches.
	want := "(π[1,0](σ[#0=k1](R)) ∪ σ[#1=k1](S))"
	if opt != want {
		t.Fatalf("Optimize = %s, want %s", opt, want)
	}
}

func TestOptimizeCollapsesProjections(t *testing.T) {
	db := testDB()
	q := algebra.Proj(algebra.Proj(algebra.R("R"), 1, 0), 1)
	if got, want := Optimize(q, db).String(), "π[0](R)"; got != want {
		t.Fatalf("Optimize = %s, want %s", got, want)
	}
}

func TestOptimizeDropsTrueKeepsSemantics(t *testing.T) {
	db := testDB()
	q := algebra.Sel(algebra.R("R"), algebra.CAnd(algebra.True{}, algebra.True{}))
	if got, want := Optimize(q, db).String(), "R"; got != want {
		t.Fatalf("Optimize = %s, want %s", got, want)
	}
	// The planned result still carries the interpreter's σ output name.
	res := Eval(db, q, algebra.ModeNaive)
	if res.Name() != "σ" {
		t.Fatalf("output name = %q, want σ", res.Name())
	}
}

func TestCompileExtractsMultiKeyJoin(t *testing.T) {
	db := testDB()
	// Two equalities between R and S → one two-key hash join.
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")),
		algebra.CAnd(algebra.CEq(0, 2), algebra.CEq(1, 3)))
	p := Compile(q, db, algebra.ModeNaive)
	j, ok := p.root.(*pjoin)
	if !ok {
		t.Fatalf("root = %T, want *pjoin", p.root)
	}
	if len(j.lkeys) != 2 || len(j.rkeys) != 2 {
		t.Fatalf("keys = %v/%v, want two each", j.lkeys, j.rkeys)
	}
	if len(j.residual) != 0 {
		t.Fatalf("residual = %v, want none", j.residual)
	}
}

func TestCompileFlattensNestedProducts(t *testing.T) {
	db := testDB()
	// ((R × S) × T) with chained equalities flattens into two hash-join
	// steps, not one binary join over a materialized product.
	q := algebra.Sel(
		algebra.Times(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.R("T")),
		algebra.CAnd(algebra.CEq(0, 2), algebra.CEq(3, 4)))
	p := Compile(q, db, algebra.ModeNaive)
	// The cost-based order may differ from the syntactic one, in which case
	// a projection restoring the syntactic column order sits at the root.
	root := p.root
	if proj, ok := root.(*pproject); ok {
		root = proj.in
	}
	outer, ok := root.(*pjoin)
	if !ok {
		t.Fatalf("root = %T, want *pjoin", root)
	}
	inner, ok := outer.left.(*pjoin)
	if !ok {
		t.Fatalf("outer.left = %T, want *pjoin (flattened chain)", outer.left)
	}
	if len(inner.lkeys) != 1 || len(outer.lkeys) != 1 {
		t.Fatalf("keys: inner %v outer %v, want one each", inner.lkeys, outer.lkeys)
	}
}

func TestPrepareSplitsFrozenAndDelta(t *testing.T) {
	db := testDB() // R has a null, S and T are null-free
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 2))
	p := Compile(q, db, algebra.ModeNaive)
	prep := p.Prepare(db)
	j := p.root.(*pjoin)
	nodes := prep.stateOf(p).nodes
	if nodes[j.right.base().id].varying {
		t.Fatal("the null-free right scan must be frozen across worlds")
	}
	if left := &nodes[j.left.base().id]; !left.varying || len(left.scan.nulls) != 1 {
		t.Fatalf("the null-bearing left scan must vary on exactly its null row, got %+v", left.scan)
	}
	if st := &nodes[j.base().id]; !st.varying || st.barrier {
		t.Fatal("a join over a varying input varies and distributes")
	}
	if len(prep.NullIDs()) != 1 {
		t.Fatalf("NullIDs = %v, want the one null of R", prep.NullIDs())
	}
	// Executing on worlds still matches from-scratch evaluation, and only
	// then are the frozen artifacts built.
	if !nodes[j.base().id].tableR.empty() {
		t.Fatal("Prepare must not build join tables eagerly")
	}
	v := value.NewValuation()
	v.Set(prep.NullIDs()[0], value.Const("k1"))
	want := algebra.EvalInterp(db.Apply(v), q, algebra.ModeNaive)
	r := prep.Runner(nil)
	defer r.Close()
	if got := r.Eval(v).Result().Relation(); !want.Equal(got) {
		t.Fatalf("prepared exec = %v, want %v", got, want)
	}
	if nodes[j.base().id].tableR.empty() {
		t.Fatal("the table over the frozen right side must be built once used")
	}
}

func TestPlanCacheReuse(t *testing.T) {
	db := testDB()
	q := algebra.Sel(algebra.R("S"), algebra.CEqC(0, value.Const("k1")))
	p1 := PlanFor(q, db, algebra.ModeSQL, false)
	p2 := PlanFor(q, db, algebra.ModeSQL, false)
	if p1 != p2 {
		t.Fatal("same query+schema+mode must reuse the compiled plan")
	}
	if p3 := PlanFor(q, db, algebra.ModeNaive, false); p3 == p1 {
		t.Fatal("different mode must not share a plan")
	}
}

func TestExplainMarksFrozenSubplans(t *testing.T) {
	db := testDB()
	q := algebra.Proj(algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(0, 2)), 1, 3)
	out := Describe(q, db, algebra.ModeNaive, false, nil, false).Text()
	for _, want := range []string{"logical:", "hash-join", "scan R", "scan S", "[build side frozen]", "used columns:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestSQLModeJoinSkipsNullKeys(t *testing.T) {
	db := testDB()
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.R("S")), algebra.CEq(1, 2))
	want := algebra.EvalInterp(db, q, algebra.ModeSQL)
	got := Eval(db, q, algebra.ModeSQL)
	if !want.Equal(got) {
		t.Fatalf("SQL join = %v, want %v", got, want)
	}
}

// TestExplainShowsFrozenDeltaSplit pins the EXPLAIN rendering of the
// (frozen, Δ) split: scans show their row partition, a varying join its
// frozen build side, a barrier its flag, and ANALYZE adds the frozen part
// and largest Δ of every node it ran.
func TestExplainShowsFrozenDeltaSplit(t *testing.T) {
	db := testDB() // R has one null row, S and T are null-free
	q, err := raparse.ParseQuery("minus(proj(1 3, sel(eq(0, 2), times(R, S))), times(T, proj(1, R)))")
	if err != nil {
		t.Fatal(err)
	}
	const want = `query:    (π[1,3](σ[#0=#2]((R × S))) − (T × π[1](R)))
logical:  (π[1,3](σ[#0=#2]((R × S))) − (T × π[1](R)))
mode:     naive, set semantics
physical:
  diff  (est≈2)  [barrier]
    hash-join #0=#2 emit [1,3]  (est≈2, cost≈6)  [build side frozen]
      scan R  (est≈3)  [frozen 2 rows + Δ≤1/world]
      scan S  (est≈2)  [frozen across worlds]
    cross-join emit [1,0]  (est≈3, cost≈5)  [build side frozen]
      scan R[1]  (est≈3)  [frozen 2 rows + Δ≤1/world]
      scan T  (est≈1)  [frozen across worlds]
used columns:
  R: [0,1]
  S: [0,1]
  T: [0]
`
	if got := Describe(q, db, algebra.ModeNaive, false, nil, false).Text(); got != want {
		t.Errorf("explain text:\n%s\nwant:\n%s", got, want)
	}

	info := Describe(q, db, algebra.ModeNaive, false, nil, true)
	root := info.Physical
	if !root.Barrier || root.Frozen || root.FrozenRows == nil || *root.FrozenRows != 0 {
		t.Errorf("diff over a varying right side must be a barrier with an empty frozen part: %+v", root)
	}
	if root.DeltaRows == nil || *root.DeltaRows != *root.ActualRows {
		t.Errorf("a barrier re-emits its whole output as Δ: delta %v actual %v", root.DeltaRows, root.ActualRows)
	}
	join := root.Children[0]
	if join.Barrier || !join.BuildFrozen || join.FrozenRows == nil || *join.FrozenRows != 2 || join.DeltaRows == nil || *join.DeltaRows != 0 {
		t.Errorf("join: want frozen 2 rows, Δ 0 (⊥ joins nothing) and a frozen build side: %+v", join)
	}
	text := info.Text()
	for _, want := range []string{"[barrier, Δ≤", "[frozen 2 rows + Δ≤0/world]  [build side frozen]", "[frozen across worlds]"} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze text missing %q:\n%s", want, text)
		}
	}
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"barrier":true`, `"frozen_rows":2`, `"delta_rows":1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("structured plan missing %s:\n%s", want, data)
		}
	}
}

// TestExplainUsedColumnsAreTheOracleNulls: the nulls sitting in EXPLAIN's
// used columns are exactly the nulls a certain-answer oracle binds
// (Prepared.NullIDs), on a generated corpus of full relational algebra with
// IN subqueries under set semantics; a query reading the active domain
// reports no used columns.
func TestExplainUsedColumnsAreTheOracleNulls(t *testing.T) {
	r := rand.New(rand.NewSource(3301))
	qcfg := gen.DefaultQueryConfig()
	qcfg.InSubRate = 0.3
	checked := 0
	for trial := 0; trial < 600; trial++ {
		db := gen.DB(r, gen.DefaultConfig())
		q := gen.Query(r, qcfg, 1+trial%2)
		if algebra.Validate(q, db) != nil {
			continue
		}
		mode := algebra.Mode(trial % 2)
		info := Describe(q, db, mode, false, nil, false)
		var inUsed []uint64
		seen := map[uint64]bool{}
		for name, cols := range info.UsedColumns {
			db.Relation(name).EachUnordered(func(tp value.Tuple, _ int) {
				for _, c := range cols {
					if v := tp[c]; v.IsNull() && !seen[v.NullID()] {
						seen[v.NullID()] = true
						inUsed = append(inUsed, v.NullID())
					}
				}
			})
		}
		slices.Sort(inUsed)
		want := PlanFor(q, db, mode, false).Prepare(db).NullIDs()
		if !slices.Equal(inUsed, want) {
			t.Fatalf("%s (%s): nulls in used columns %v %v, oracle binds %v", q, mode, info.UsedColumns, inUsed, want)
		}
		checked++
	}
	if checked < 400 {
		t.Fatalf("only %d of 600 generated queries were valid", checked)
	}

	db := testDB()
	q := algebra.Sel(algebra.Times(algebra.R("R"), algebra.DomK(1)), algebra.CEq(1, 2))
	if info := Describe(q, db, algebra.ModeNaive, false, nil, false); info.UsedColumns != nil {
		t.Fatalf("a Dom query reports used columns %v", info.UsedColumns)
	}
}

// TestZeroColumnProjectionOfJoin: a projection onto no columns folded into
// a join must emit zero-ary tuples, not the join's whole rows.
func TestZeroColumnProjectionOfJoin(t *testing.T) {
	db := testDB()
	q := algebra.Proj(algebra.Join(algebra.R("R"), algebra.R("S"), algebra.CEq(0, 2)))
	want := algebra.EvalInterp(db, q, algebra.ModeNaive)
	for _, bag := range []bool{false, true} {
		p := compile(q, db, algebra.ModeNaive, bag)
		if got := p.Exec(db); got.Arity() != 0 || got.Len() != want.Len() {
			t.Errorf("bag=%t: Exec = %v (arity %d), interpreter = %v", bag, got, got.Arity(), want)
		}
		if got := p.Prepare(db).Frozen(); got.Arity() != 0 || got.Len() != want.Len() {
			t.Errorf("bag=%t: frozen part %v (arity %d), interpreter = %v", bag, got, got.Arity(), want)
		}
	}
}

// TestGreedyOrderFollowsCheapestGrowth: beyond dpMaxInputs the join order
// starts at the smallest input and then adds the input whose join grows the
// prefix least (its cardinality plus the build cost), which need not be the
// smallest input left.
func TestGreedyOrderFollowsCheapestGrowth(t *testing.T) {
	rows := []float64{40, 30, 5, 20}
	conjs := []crossConj{{mask: 1<<0 | 1<<2, sel: 0.01}, {mask: 1<<1 | 1<<3, sel: 0.001}, {mask: 1<<2 | 1<<3, sel: 0.5}}
	// From {2}: +0 costs 40·5·0.01 + 2·40 = 82, +3 costs 50 + 40 = 90; from
	// {0, 2}: +3 costs 20 + 40 = 60, +1 costs 60 + 60 = 120.
	if got, want := greedyOrder(rows, conjs), []int{2, 0, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("greedyOrder = %v, want %v", got, want)
	}
}

// TestNineWayChainJoin: a chain of nine joined relations is one cluster of
// more than dpMaxInputs inputs, ordered greedily; the planner must still
// match the interpreter in every world, in both modes and semantics.
func TestNineWayChainJoin(t *testing.T) {
	var data strings.Builder
	rels, cond := "R8", "eq(15, 16)"
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&data, "rel R%d a b\nrow R%[1]d v0 v1\nrow R%[1]d v1 v2\nrow R%[1]d v2 v0\n", i)
		if i < 8 {
			rels = fmt.Sprintf("times(R%d, %s)", 7-i, rels)
		}
		if i < 7 {
			cond = fmt.Sprintf("and(eq(%d, %d), %s)", 2*(6-i)+1, 2*(6-i)+2, cond)
		}
	}
	data.WriteString("row R4 _1 v1\n")
	db, err := raparse.ParseDatabase(strings.NewReader(data.String()))
	if err != nil {
		t.Fatal(err)
	}
	q, err := raparse.ParseQuery("sel(" + cond + ", " + rels + ")")
	if err != nil {
		t.Fatal(err)
	}
	checkDelta(t, db, q, append(value.Consts("v0", "v1"), value.Const("⁑fresh")), map[string]bool{})
}
