package raparse

import (
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/value"
)

func TestParseQueryShapes(t *testing.T) {
	cases := []struct {
		src  string
		want string // String() of the parsed expression
	}{
		{"R", "R"},
		{"minus(R, S)", "(R − S)"},
		{"proj(0 2, R)", "π[0,2](R)"},
		{"sel(eq(0, 1), R)", "σ[#0=#1](R)"},
		{"sel(eqc(1, 'o 2'), R)", "σ[#1=o 2](R)"},
		{"sel(and(isnull(0), neqc(1, x)), R)", "σ[(null(#0) ∧ #1≠x)](R)"},
		{"union(times(R, S), T)", "((R × S) ∪ T)"},
		{"inter(R, div(T, S))", "(R ∩ (T ÷ S))"},
		{"dom(2)", "Dom^2"},
		{"sel(not(in(0, proj(1, P))), O)", "σ[¬((#0) IN (π[1](P)))](O)"},
		{"sel(or(lt(0,1), gtc(0, '5')), R)", "σ[(#0<#1 ∨ #0>5)](R)"},
	}
	for _, tc := range cases {
		e, err := ParseQuery(tc.src)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", tc.src, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("ParseQuery(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"", "minus(R)", "sel(eq(0), R)", "proj(x, R)", "R S",
		"sel(frobnicate(1), R)", "dom(x)", "minus(R, S",
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

func TestParseQueryRoundTripEval(t *testing.T) {
	dbSrc := `
# the Figure 1 database
rel Orders oid title price
row Orders o1 'Big Data' 30
row Orders o2 SQL 35
row Orders o3 Logic 50
rel Payments cid oid
row Payments c1 o1
row Payments c2 _1
`
	db, err := ParseDatabase(strings.NewReader(dbSrc))
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("Orders").Len() != 3 {
		t.Fatalf("orders = %v", db.MustRelation("Orders"))
	}
	if !db.MustRelation("Orders").Contains(value.Consts("o1", "Big Data", "30")) {
		t.Fatalf("quoted literal lost: %v", db.MustRelation("Orders"))
	}
	if len(db.NullIDs()) != 1 {
		t.Fatalf("nulls = %v", db.NullIDs())
	}
	q, err := ParseQuery("proj(0, sel(not(in(0, proj(1, Payments))), Orders))")
	if err != nil {
		t.Fatal(err)
	}
	// SQL semantics: the NOT IN with a null returns nothing.
	if got := algebra.EvalInterp(db, q, algebra.ModeSQL); got.Len() != 0 {
		t.Fatalf("SQL = %v, want ∅", got)
	}
	// Naive semantics: o2 and o3 remain.
	if got := algebra.EvalInterp(db, q, algebra.ModeNaive); got.Len() != 2 {
		t.Fatalf("naive = %v", got)
	}
}

func TestParseDatabaseSharedNulls(t *testing.T) {
	src := `
rel R a b
row R _1 _1
row R _1 _2
`
	db, err := ParseDatabase(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustRelation("R")
	ts := r.Tuples()
	if len(ts) != 2 {
		t.Fatalf("rows = %v", ts)
	}
	// The token _1 denotes the same marked null everywhere.
	if ts[0][0] != ts[0][1] && ts[1][0] != ts[1][1] {
		t.Fatalf("repeated null token must be the same null: %v", ts)
	}
	if len(db.NullIDs()) != 2 {
		t.Fatalf("two distinct nulls expected: %v", db.NullIDs())
	}
}

func TestParseDatabaseErrors(t *testing.T) {
	bad := []string{
		"row R a",            // row before rel
		"rel R a\nrow R a b", // arity mismatch
		"frob R a",           // unknown directive
		"rel",                // too short
	}
	for _, src := range bad {
		if _, err := ParseDatabase(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDatabase(%q) should fail", src)
		}
	}
}
