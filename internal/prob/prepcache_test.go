package prob

import (
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// TestMuPrepCache: µ and µᵏ through a shared prepared-plan cache match
// the one-shot path, warm and cold.
func TestMuPrepCache(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.Consts("c1", "c2"))
	r.Add(value.T(db.FreshNull(), value.Const("c2")))
	db.Add(r)

	q := algebra.Proj(algebra.Sel(algebra.R("R"), algebra.CEqC(1, value.Const("c2"))), 0)
	tuple := value.Consts("c1")
	cache := plan.NewPrepCache(4)
	opts := certain.Options{Prep: cache}

	for _, stage := range []string{"cold", "warm"} {
		want, err := Mu(db, q, nil, tuple, certain.Options{})
		if err != nil {
			t.Fatalf("%s: Mu: %v", stage, err)
		}
		got, err := Mu(db, q, nil, tuple, opts)
		if err != nil {
			t.Fatalf("%s: Mu with cache: %v", stage, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: Mu with cache = %v, without = %v", stage, got, want)
		}
		wantK, err := MuK(db, q, nil, tuple, 4, certain.Options{})
		if err != nil {
			t.Fatalf("%s: MuK: %v", stage, err)
		}
		gotK, err := MuK(db, q, nil, tuple, 4, opts)
		if err != nil {
			t.Fatalf("%s: MuK with cache: %v", stage, err)
		}
		if gotK.Cmp(wantK) != 0 {
			t.Fatalf("%s: MuK with cache = %v, without = %v", stage, gotK, wantK)
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache not exercised: %+v", st)
	}
}
