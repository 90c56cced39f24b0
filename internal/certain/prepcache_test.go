package certain

import (
	"strconv"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// TestOraclesWithPrepCache replays every oracle through a shared
// prepared-plan cache: results must be identical to the one-shot path,
// across repeated calls and across a mutation of the base database.
func TestOraclesWithPrepCache(t *testing.T) {
	db := relation.NewDatabase()
	orders := relation.New("Orders", "oid", "cid")
	orders.Add(value.Consts("o1", "c1"))
	orders.Add(value.T(value.Const("o2"), db.FreshNull()))
	db.Add(orders)
	pay := relation.New("Payments", "oid")
	pay.Add(value.Consts("o1"))
	db.Add(pay)

	q := algebra.Minus(algebra.Proj(algebra.R("Orders"), 0), algebra.R("Payments"))
	cache := plan.NewPrepCache(8)
	fresh := Options{Workers: 1}
	cached := Options{Workers: 1, Prep: cache}

	step := func(stage string) {
		t.Helper()
		want, err := WithNulls(db, q, fresh)
		if err != nil {
			t.Fatalf("%s: fresh WithNulls: %v", stage, err)
		}
		got, err := WithNulls(db, q, cached)
		if err != nil {
			t.Fatalf("%s: cached WithNulls: %v", stage, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: cached cert⊥ %s, fresh %s", stage, got, want)
		}
		wantI, err := Intersection(db, q, fresh)
		if err != nil {
			t.Fatalf("%s: fresh Intersection: %v", stage, err)
		}
		gotI, err := Intersection(db, q, cached)
		if err != nil {
			t.Fatalf("%s: cached Intersection: %v", stage, err)
		}
		if !gotI.Equal(wantI) {
			t.Fatalf("%s: cached cert∩ %s, fresh %s", stage, gotI, wantI)
		}
	}

	step("cold")
	if st := cache.Stats(); st.Misses == 0 {
		t.Fatalf("cold run did not populate the cache: %+v", st)
	}
	step("warm")
	warm := cache.Stats()
	if warm.Hits == 0 {
		t.Fatalf("warm run did not hit the cache: %+v", warm)
	}
	// Append to a read relation: the entry must not be reused as it stood —
	// either the key's statistics epoch moved (a miss compiles afresh) or it
	// is advanced across the new row — and the oracles must see the new
	// contents. Nothing is dropped.
	pay.Add(value.Consts("o2"))
	step("after append")
	if st := cache.Stats(); (st.Advances == 0 && st.Misses == warm.Misses) || st.Invalidations != 0 {
		t.Fatalf("append neither advanced nor missed, or dropped an entry: %+v", st)
	}
	// A removal is no append: the entry is dropped and prepared afresh.
	pay.SetMult(value.Consts("o2"), 0)
	step("after removal")
	if st := cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("removal did not drop the entry: %+v", st)
	}
}

// TestOraclesAcrossAdvances: after every one of a series of appends — rows
// without nulls, rows with nulls in read and in unread columns, payments that
// retract certain answers — cert⊥ and cert∩ through a cache whose entries
// only ever advance report the answers and the world counts of a cold cache.
func TestOraclesAcrossAdvances(t *testing.T) {
	db := relation.NewDatabase()
	orders := relation.New("Orders", "oid", "cid")
	pay := relation.New("Payments", "oid")
	db.Add(orders).Add(pay)
	// Sixteen rows each, so the appends below stay inside the relations'
	// size classes and every lookup finds its entry.
	for i := 0; i < 16; i++ {
		orders.Add(value.Consts("o"+strconv.Itoa(i), "c"+strconv.Itoa(i%3)))
		pay.Add(value.Consts("o" + strconv.Itoa(2*i)))
	}
	n1, n2 := db.FreshNull(), db.FreshNull()
	orders.Add(value.T(n1, value.Const("c1")))
	pay.Add(value.T(n2))
	queries := []algebra.Expr{
		algebra.Minus(algebra.Proj(algebra.R("Orders"), 0), algebra.R("Payments")),
		algebra.Proj(algebra.Sel(algebra.R("Orders"), algebra.CEqC(1, value.Const("c1"))), 0),
		algebra.Proj(algebra.Sel(algebra.Times(algebra.R("Orders"), algebra.R("Payments")), algebra.CEq(0, 2)), 1),
	}
	cache := plan.NewPrepCache(8)
	appends := []func(){
		func() { orders.Add(value.Consts("o90", "c1")) },
		func() { pay.Add(value.Consts("o1")) },
		func() { orders.Add(value.T(value.Const("o91"), db.FreshNull())) },
		func() { orders.Add(value.T(n1, value.Const("c2"))) },
		func() { pay.Add(value.T(n1)); orders.Add(value.Consts("o92", "c0")) },
		func() { pay.Add(value.Consts("o90")) },
	}
	run := func(stage string) {
		t.Helper()
		for _, q := range queries {
			for name, oracle := range map[string]func(*relation.Database, algebra.Expr, Options) (*relation.Relation, error){
				"cert⊥": WithNulls, "cert∩": Intersection,
			} {
				coldTr, warmTr := plan.NewTrace(false), plan.NewTrace(false)
				want, err := oracle(db, q, Options{Workers: 2, Prep: plan.NewPrepCache(8), Trace: coldTr})
				if err != nil {
					t.Fatalf("%s: cold %s: %v", stage, name, err)
				}
				got, err := oracle(db, q, Options{Workers: 2, Prep: cache, Trace: warmTr})
				if err != nil {
					t.Fatalf("%s: advanced %s: %v", stage, name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s: %s(%s) = %s through advanced entries, %s cold", stage, name, q, got, want)
				}
				if g, w := warmTr.Execs.Load(), coldTr.Execs.Load(); g != w {
					t.Errorf("%s: %s(%s) enumerated %d worlds through advanced entries, %d cold", stage, name, q, g, w)
				}
			}
		}
	}
	run("warm-up")
	for i, app := range appends {
		app()
		run("after append " + strconv.Itoa(i+1))
	}
	if st := cache.Stats(); st.Invalidations != 0 || st.Advances == 0 || st.Misses != uint64(len(queries)) {
		t.Errorf("stats %+v: want one miss per query, then only advances", st)
	}
}
