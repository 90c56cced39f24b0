package incdb_test

import (
	"testing"

	"incdb"
)

// The facade is exercised through the examples as well; these tests pin
// the public API surface used in README's quickstart.
func TestFacadeQuickstart(t *testing.T) {
	db := incdb.NewDatabase()
	items := incdb.NewRelation("Items", "sku", "warehouse")
	items.Add(incdb.Consts("tv", "berlin"))
	items.Add(incdb.Consts("radio", "paris"))
	items.Add(incdb.T(incdb.Const("laptop"), db.FreshNull()))
	db.Add(items)

	q := incdb.Proj(incdb.Sel(incdb.R("Items"),
		incdb.CNeqC(1, incdb.Const("berlin"))), 0)

	if got := incdb.SQL(db, q); got.Len() != 1 || !got.Contains(incdb.Consts("radio")) {
		t.Fatalf("SQL = %v", got)
	}
	if got := incdb.Naive(db, q); got.Len() != 2 {
		t.Fatalf("Naive = %v", got)
	}
	cert, err := incdb.CertainWithNulls(db, q, incdb.CertainOptions{})
	if err != nil || cert.Len() != 1 {
		t.Fatalf("cert⊥ = %v, %v", cert, err)
	}
	plus, err := incdb.ApproxPlus(db, q)
	if err != nil || !plus.SubsetOfSet(cert) {
		t.Fatalf("Q+ = %v, %v", plus, err)
	}
	poss, err := incdb.ApproxPossible(db, q)
	if err != nil || poss.Len() != 2 {
		t.Fatalf("Q? = %v, %v", poss, err)
	}
	inter, err := incdb.CertainIntersection(db, q, incdb.CertainOptions{Workers: 2})
	if err != nil || inter.Len() != 1 || !inter.Contains(incdb.Consts("radio")) {
		t.Fatalf("cert∩ = %v, %v", inter, err)
	}
	if got := incdb.NaiveBag(db, q); got.Mult(incdb.Consts("laptop")) != 1 {
		t.Fatalf("NaiveBag = %v", got)
	}
	if got := incdb.SQLBag(db, q); got.Mult(incdb.Consts("radio")) != 1 || got.Len() != 1 {
		t.Fatalf("SQLBag = %v", got)
	}
	mu, err := incdb.Mu(db, q, nil, incdb.Consts("laptop"), incdb.CertainOptions{})
	if err != nil || mu.RatString() != "1" {
		t.Fatalf("µ = %v, %v", mu, err)
	}
	// Four constants (tv, berlin, radio, paris) plus laptop: µ⁵ has every
	// world but the one sending ⊥ to berlin.
	muk, err := incdb.MuK(db, q, nil, incdb.Consts("laptop"), 5, incdb.CertainOptions{Workers: 2})
	if err != nil || muk.RatString() != "4/5" {
		t.Fatalf("µ⁵ = %v, %v", muk, err)
	}
	ok, err := incdb.AlmostCertainlyTrue(db, q, incdb.Consts("laptop"))
	if err != nil || !ok {
		t.Fatalf("AlmostCertainlyTrue = %v, %v", ok, err)
	}
	for _, s := range []incdb.Strategy{incdb.Eager, incdb.SemiEager, incdb.Lazy, incdb.Aware} {
		cpart, ppart, err := incdb.CTableAnswers(db, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !cpart.SubsetOfSet(cert) || !poss.SubsetOfSet(ppart) && !ppart.SubsetOfSet(poss) {
			t.Fatalf("%v: ctable answers inconsistent", s)
		}
	}
	rep := incdb.Analyze(db, q, incdb.CertainOptions{})
	if len(rep.FalseNegatives) != 0 || len(rep.FalsePositives) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestFacadeCodd(t *testing.T) {
	db := incdb.NewDatabase()
	r := incdb.NewRelation("R", "a", "b")
	n := db.FreshNull()
	r.Add(incdb.T(n, n)) // repeated marked null
	db.Add(r)
	cd := incdb.Codd(db)
	for _, tp := range cd.MustRelation("R").Tuples() {
		if tp[0] == tp[1] {
			t.Fatalf("Codd transform must break repeated nulls: %v", tp)
		}
	}
}
