package algebra

import (
	"testing"

	"incdb/internal/relation"
	"incdb/internal/value"
)

// Section 6 ("Marked nulls"): coddification commutes with projection-style
// queries but not with queries whose answers depend on null repetition.
func TestCoddCommutesForSimpleProjection(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(c("1"), n(1)))
	r.Add(value.T(n(2), c("2")))
	db.Add(r)
	if !CoddCommutes(db, Proj(Rel{"R"}, 0)) {
		t.Fatalf("projection should commute with codd")
	}
	if !CoddCommutes(db, Rel{"R"}) {
		t.Fatalf("identity should commute with codd (each null occurs once)")
	}
}

func TestCoddFailsOnRepetitionSensitiveQuery(t *testing.T) {
	// D = {R(⊥1, ⊥1)}: σ_{a=b}(R) returns the tuple on D (the repeated
	// marked null certainly matches itself) but returns nothing on
	// codd(D), where the two occurrences become distinct nulls.
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(n(1), n(1)))
	db.Add(r)
	q := Sel(Rel{"R"}, Eq{0, 1})
	if CoddCommutes(db, q) {
		t.Fatalf("σ_{a=b} must distinguish marked from Codd nulls")
	}
	// Sanity: on the original D the selection keeps the row.
	if EvalInterp(db, q, ModeNaive).Len() != 1 {
		t.Fatalf("marked-null self-join lost")
	}
	// And on codd(D) it does not.
	if EvalInterp(relation.Codd(db), q, ModeNaive).Len() != 0 {
		t.Fatalf("codd nulls must not self-join")
	}
}

func TestCoddCommutesOnCoddDatabases(t *testing.T) {
	// If D already has non-repeating nulls, codd(D) only renames them, so
	// every generic query commutes.
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.Add(value.T(c("1"), n(1)))
	r.Add(value.T(n(2), c("2")))
	db.Add(r)
	queries := []Expr{
		Sel(Rel{"R"}, Eq{0, 1}),
		Proj(Rel{"R"}, 1, 0),
		Union{Rel{"R"}, Rel{"R"}},
		Diff{Rel{"R"}, Sel(Rel{"R"}, EqConst{0, c("1")})},
	}
	for _, q := range queries {
		if !CoddCommutes(db, q) {
			t.Errorf("query %s should commute on a Codd database", q)
		}
	}
}
