package plan

import (
	"slices"

	"incdb/internal/relation"
	"incdb/internal/value"
)

// Result is an answer ready to be served: a relation plus the Δ rows one
// execution adds to it, owned and sorted. For a plan-backed answer the
// relation is the Prepared's frozen part (Answer.Frozen), whose sorted
// snapshot is built once per prepare or advance and shared by every request,
// so serving the answer copies and sorts only Δ. Each merges the two sorted
// runs: it visits exactly the tuples and multiplicities of Relation(), in
// Relation().Each's order (Tuple.Compare is a total order on distinct
// tuples), so an encoding written from either is byte-identical.
//
// Lifetime: the frozen part belongs to the Prepared, and an advance folds
// appended rows into it in place. A Result is therefore valid only until the
// database it was computed on changes: encode it, or take Relation, under
// the read lock it was evaluated in.
type Result struct {
	frozen *relation.Relation
	// delta is what Δ adds to frozen, sorted by Tuple.Compare, tuples owned.
	// Under set semantics these are the Δ tuples not in frozen, each with
	// multiplicity one. Under bag semantics they are all of Δ: a row whose
	// tuple is in frozen adds its (positive) multiplicity to the frozen one.
	delta []countedRow
}

type countedRow struct {
	t value.Tuple
	m int
}

// ResultOf serves a materialized relation, such as an oracle's or a c-table
// strategy's answer, as a Result with no Δ rows.
func ResultOf(r *relation.Relation) Result { return Result{frozen: r} }

// Result turns the answer into a Result that outlives the Runner: the Δ rows
// it keeps are copied into one slab and sorted. Under set semantics it keeps
// the Δ tuples Frozen lacks, under bag semantics every Δ row: what addRows
// adds to a copy of Frozen.
func (a Answer) Result() Result {
	d := a.delta
	keep := make([]countedRow, 0, d.len())
	width := 0
	for i, t := range d.rows {
		m := d.mults[i]
		if !a.bag {
			if a.Frozen.Contains(t) {
				continue
			}
			m = 1
		}
		keep = append(keep, countedRow{t: t, m: m})
		width += len(t)
	}
	slab := make([]value.Value, 0, width)
	for i := range keep {
		n := len(slab)
		slab = append(slab, keep[i].t...)
		keep[i].t = value.Tuple(slab[n:len(slab):len(slab)])
	}
	slices.SortFunc(keep, func(x, y countedRow) int { return x.t.Compare(y.t) })
	return Result{frozen: a.Frozen, delta: keep}
}

// Attrs returns the attribute names (do not modify).
func (r Result) Attrs() []string { return r.frozen.Attrs() }

// Each calls f on every distinct tuple of the answer with its multiplicity,
// in the deterministic order of relation.Relation.Each. f must not mutate
// the tuple.
func (r Result) Each(f func(t value.Tuple, mult int)) {
	d := r.delta
	r.frozen.Each(func(t value.Tuple, m int) {
		for len(d) > 0 {
			c := d[0].t.Compare(t)
			if c > 0 {
				break
			}
			if c == 0 {
				m += d[0].m
				d = d[1:]
				break
			}
			f(d[0].t, d[0].m)
			d = d[1:]
		}
		f(t, m)
	})
	for _, e := range d {
		f(e.t, e.m)
	}
}

// Relation materializes the answer as a relation the caller owns, named and
// attributed like the frozen part.
func (r Result) Relation() *relation.Relation {
	out := r.frozen.Clone()
	for _, e := range r.delta {
		out.AddMult(e.t, e.m)
	}
	return out
}
