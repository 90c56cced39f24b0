package plan

import (
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// dupDB builds a database where the IN subquery's projection is highly
// duplicated: Wide(a,b) holds n rows per distinct a-value.
func dupDB() *relation.Database {
	db := relation.NewDatabase()
	wide := relation.New("Wide", "a", "b")
	for i := 0; i < 4; i++ {
		for j := 0; j < 25; j++ {
			wide.Add(value.Consts("k"+string(rune('0'+i)), "pay"+string(rune('a'+j))))
		}
	}
	db.Add(wide)
	probe := relation.New("Probe", "x")
	probe.Add(value.Consts("k0"))
	probe.Add(value.Consts("k3"))
	probe.Add(value.Consts("zz"))
	probe.Add(value.T(db.FreshNull()))
	db.Add(probe)
	return db
}

// TestInSubplanRootIsDistinct pins the semi-join reduction: every IN
// subquery compiles with a dedup at its root, so the membership set and the
// SQL null split are built from distinct probed-column values only.
func TestInSubplanRootIsDistinct(t *testing.T) {
	db := dupDB()
	q := algebra.Sel(algebra.R("Probe"),
		algebra.CIn(algebra.Proj(algebra.R("Wide"), 0), 0))
	for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
		p := compile(q, db, mode, false)
		if len(p.subs) != 1 {
			t.Fatalf("mode %v: %d subplans, want 1", mode, len(p.subs))
		}
		root, ok := p.subs[0].root.(*pdistinct)
		if !ok {
			t.Fatalf("mode %v: subplan root is %T, want *pdistinct", mode, p.subs[0].root)
		}
		if got, want := root.base().width, 1; got != want {
			t.Fatalf("distinct width %d, want %d", got, want)
		}
	}
}

// TestDistinctDedupsSubqueryStream verifies the reduction operationally:
// the distinct root emits each probed value exactly once even though the
// projection underneath it streams one row per duplicate.
func TestDistinctDedupsSubqueryStream(t *testing.T) {
	db := dupDB()
	q := algebra.Sel(algebra.R("Probe"),
		algebra.CIn(algebra.Proj(algebra.R("Wide"), 0), 0))
	p := compile(q, db, algebra.ModeNaive, false)
	sub := p.subs[0]
	x := acquire(sub, p.Prepare(db), nil, false)

	inner, root := 0, 0
	stream(sub.root.(*pdistinct).in, x, func(b *vbatch) { inner += len(b.rows) })
	stream(sub.root, x, func(b *vbatch) { root += len(b.rows) })
	if inner != 100 {
		t.Fatalf("projection stream emitted %d rows, want 100 (4 values × 25 dups)", inner)
	}
	if root != 4 {
		t.Fatalf("distinct emitted %d rows, want 4 distinct values", root)
	}
}

// TestInSemiJoinEquivalence checks that the reduction changes no answers,
// in both modes and under preparation.
func TestInSemiJoinEquivalence(t *testing.T) {
	db := dupDB()
	q := algebra.Sel(algebra.R("Probe"),
		algebra.CIn(algebra.Proj(algebra.R("Wide"), 0), 0))
	for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
		want := algebra.EvalInterp(db, q, mode)
		if got := Eval(db, q, mode); !got.Equal(want) {
			t.Fatalf("mode %v: planned %s, interpreter %s", mode, got, want)
		}
		prep := PlanFor(q, db, mode, false).Prepare(db)
		if got := prep.Exec(db); !got.Equal(want) {
			t.Fatalf("mode %v: prepared %s, interpreter %s", mode, got, want)
		}
	}
	// Explain surfaces the reduction.
	if txt := Describe(q, db, algebra.ModeSQL, false, nil, false).Text(); !strings.Contains(txt, "distinct (semi-join dedup)") {
		t.Fatalf("explain does not mention the semi-join dedup:\n%s", txt)
	}
}
