package tpch

import (
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/plan"
	"incdb/internal/translate"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig())
	if !a.Equal(b) {
		t.Fatalf("generation must be deterministic")
	}
	if !a.IsComplete() {
		t.Fatalf("generated database must be null-free")
	}
	for _, name := range []string{"region", "nation", "customer", "orders", "lineitem"} {
		if a.Relation(name) == nil {
			t.Fatalf("missing relation %s", name)
		}
	}
	if a.MustRelation("customer").Len() != SmallConfig().Customers {
		t.Fatalf("customer count = %d", a.MustRelation("customer").Len())
	}
}

func TestDirtyInjectsNulls(t *testing.T) {
	db := Generate(SmallConfig())
	dirty := Dirty(db, 0.2, 0, 99)
	if dirty.IsComplete() {
		t.Fatalf("dirtying at 20%% must inject nulls")
	}
	// Nulls never hit key columns.
	for _, tp := range dirty.MustRelation("customer").Tuples() {
		if tp[0].IsNull() || tp[1].IsNull() {
			t.Fatalf("key columns must stay intact: %v", tp)
		}
	}
	for _, tp := range dirty.MustRelation("orders").Tuples() {
		if tp[0].IsNull() {
			t.Fatalf("order key must stay intact: %v", tp)
		}
	}
	// Determinism.
	if !Dirty(db, 0.2, 0, 99).Equal(dirty) {
		t.Fatalf("dirtying must be deterministic")
	}
	// Cap respected.
	capped := Dirty(db, 1.0, 5, 3)
	if got := len(capped.NullIDs()); got != 5 {
		t.Fatalf("cap of 5 nulls, got %d", got)
	}
	// Rate 0: unchanged contents.
	if !Dirty(db, 0, 0, 1).Equal(db) {
		t.Fatalf("rate 0 must be the identity")
	}
}

func TestQueriesValidateAndTranslate(t *testing.T) {
	db := Generate(SmallConfig())
	for _, nq := range Queries() {
		if err := algebra.Validate(nq.Q, db); err != nil {
			t.Errorf("%s: %v", nq.Name, err)
			continue
		}
		if _, _, err := translate.Fig2b(nq.Q); err != nil {
			t.Errorf("%s: Fig2b: %v", nq.Name, err)
		}
		// Every query must run in both modes.
		plan.SQL(db, nq.Q)
		plan.Naive(db, nq.Q)
	}
}

func TestQ1FindsCustomersWithoutOrders(t *testing.T) {
	db := Generate(SmallConfig())
	q := Queries()[0].Q
	res := plan.Naive(db, q)
	if res.Len() == 0 {
		t.Fatalf("the generator must leave some customers without orders")
	}
}

func TestDirtySQLvsCertainDiverge(t *testing.T) {
	// On an instance with a null order-owner, SQL evaluation and cert⊥
	// must disagree on a difference query — the Figure 1 phenomenon at
	// TPC-H shape. The tiny scale keeps the |Const(D)|^|Null(D)| oracle
	// feasible, and the null is placed where Q1 is sensitive to it.
	db := Generate(TinyConfig())
	orders := db.MustRelation("orders")
	first := orders.Tuples()[0]
	orders.SetMult(first, 0)
	dirtied := first.Clone()
	dirtied[1] = db.FreshNull() // o_custkey unknown
	orders.Add(dirtied)
	if db.IsComplete() {
		t.Fatalf("expected a null to be injected")
	}
	diverged := false
	for _, nq := range Queries() {
		sqlRes := plan.SQL(db, nq.Q)
		cert, err := certain.WithNulls(db, nq.Q, certain.Options{MaxWorlds: 1 << 21})
		if err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
		if !sqlRes.EqualSet(cert) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("expected SQL and certain answers to diverge somewhere")
	}
}

func TestTotalTuples(t *testing.T) {
	db := Generate(SmallConfig())
	if TotalTuples(db) < SmallConfig().Customers {
		t.Fatalf("TotalTuples too small: %d", TotalTuples(db))
	}
}
