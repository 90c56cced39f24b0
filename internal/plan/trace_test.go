package plan

import (
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/raparse"
)

// traceQueries is the equivalence corpus: every physical node kind the
// compiler emits (scan, select, project, join, antijoin via minus,
// union, product) over testDB's mix of null-free and null-carrying
// relations.
var traceQueries = []string{
	"R",
	"proj(0, R)",
	"sel(eq(0, 2), times(R, S))",
	"proj(1, sel(eq(0, 2), times(R, S)))",
	"minus(proj(0, R), proj(0, S))",
	"union(proj(0, R), proj(0, S))",
	"sel(in(1, T), S)",
	"proj(1, sel(not(in(0, proj(0, S))), R))",
}

// TestTracedExecutionByteIdentical: executing a plan with full-detail
// tracing must return exactly the result an untraced execution returns —
// for every query in the corpus, in every mode, under set and bag
// semantics, and both fresh and through prepared (frozen-part) state.
// Tracing only observes the batch stream; it must never reorder, copy or
// re-derive it.
func TestTracedExecutionByteIdentical(t *testing.T) {
	db := testDB()
	for _, src := range traceQueries {
		q, err := raparse.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				want := PlanFor(q, db, mode, bag).Exec(db).String()

				tr := NewTrace(true)
				got := PlanFor(q, db, mode, bag).ExecTraced(db, tr).String()
				if got != want {
					t.Errorf("%q mode=%v bag=%v: traced result differs\nuntraced %s\ntraced   %s",
						src, mode, bag, want, got)
				}
				if tr.Execs.Load() != 1 {
					t.Errorf("%q: Execs = %d, want 1", src, tr.Execs.Load())
				}

				// Prepared path: frozen parts re-stream through the tracer.
				prep := PlanFor(q, db, mode, bag).Prepare(db)
				prep.Exec(db) // warm any lazily frozen state
				tr2 := NewTrace(true)
				if got := prep.ExecTraced(db, tr2).String(); got != want {
					t.Errorf("%q mode=%v bag=%v: traced prepared result differs\nuntraced %s\ntraced   %s",
						src, mode, bag, want, got)
				}
			}
		}
	}
}

// TestTraceCountsFrozenReuse: executing a prepared plan with a frozen
// null-free subplan reports the reuse on the trace.
func TestTraceCountsFrozenReuse(t *testing.T) {
	db := testDB()
	q, err := raparse.ParseQuery("minus(proj(0, R), proj(0, S))")
	if err != nil {
		t.Fatal(err)
	}
	prep := PlanFor(q, db, algebra.ModeNaive, false).Prepare(db)
	tr := NewTrace(false)
	prep.ExecTraced(db, tr)
	if tr.FrozenReuse.Load() == 0 {
		t.Fatalf("prepared execution with frozen parts reported 0 reuses")
	}
}

// TestDescribeAnalyzeAttachesActuals: EXPLAIN ANALYZE carries per-node
// actual row counts and wall time alongside the estimates, and its text
// rendering shows them.
func TestDescribeAnalyzeAttachesActuals(t *testing.T) {
	db := testDB()
	q, err := raparse.ParseQuery("proj(1, sel(not(in(0, proj(0, S))), R))")
	if err != nil {
		t.Fatal(err)
	}
	info := Describe(q, db, algebra.ModeNaive, false, nil, true)
	if !info.Analyzed {
		t.Fatalf("info.Analyzed = false")
	}
	if info.Execs < 1 {
		t.Fatalf("info.Execs = %d, want >= 1", info.Execs)
	}
	want := PlanFor(q, db, algebra.ModeNaive, false).Exec(db)
	if info.ResultRows != int64(want.Len()) {
		t.Fatalf("info.ResultRows = %d, want %d", info.ResultRows, want.Len())
	}
	var walk func(n *ExplainNode) int
	walk = func(n *ExplainNode) int {
		count := 0
		if n.ActualRows != nil {
			count++
		}
		for _, c := range n.Children {
			count += walk(c)
		}
		return count
	}
	if got := walk(info.Physical); got == 0 {
		t.Fatalf("no node carries actual rows: %+v", info.Physical)
	}
	if n := info.Physical; n.ActualRows == nil || *n.ActualRows != int64(want.Len()) {
		t.Fatalf("root actual rows = %v, want %d", n.ActualRows, want.Len())
	}
	text := info.Text()
	if !strings.Contains(text, "actual") {
		t.Fatalf("analyze text has no actuals:\n%s", text)
	}

	// Estimates still present and untouched by the traced run: the same
	// query described without analyze reports the same estimated rows.
	plain := Describe(q, db, algebra.ModeNaive, false, nil, false)
	switch pe, ae := plain.Physical.EstRows, info.Physical.EstRows; {
	case (pe == nil) != (ae == nil):
		t.Fatalf("analyze changed estimate presence: %v vs %v", ae, pe)
	case pe != nil && *pe != *ae:
		t.Fatalf("analyze changed the root estimate: %v vs %v", *ae, *pe)
	}
}
