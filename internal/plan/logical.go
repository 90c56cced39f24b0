// Package plan is the compile-once query planner: a logical optimizer over
// the relational algebra of internal/algebra plus a physical layer of
// streaming operators that is compiled a single time per query and then
// re-executed once per database. The certain/prob oracles evaluate the same
// query over an exponential space of valuations v(D); the planner lets them
// pay planning, join-order selection and — through Prepare — the hash
// tables and materialized results of every null-free subplan a single time
// across all worlds, instead of re-walking the AST and rebuilding every
// intermediate per valuation.
//
// The logical layer rewrites the algebra AST into an equivalent one:
//
//   - selection conditions are split into their ∧-conjuncts;
//   - conjuncts are pushed below ×, ∪, σ, π (re-indexing through the
//     projection map) and into the left input of −, ∩ and ⋉⇑;
//   - cascading projections are composed and projections are pushed into
//     both sides of ∪;
//   - trivially true conjuncts are dropped.
//
// Every rewrite preserves both evaluation modes (naive and SQL's
// three-valued keep-t), both semantics (set and bag) and — for the
// σπ×∪−∩ fragment — the row-by-row behaviour of the c-table strategies,
// which lets internal/ctable share the optimizer.
//
// The physical layer (compile.go, exec.go) then normalizes σ-over-×
// clusters into n-ary join graphs evaluated by multi-key hash joins.
package plan

import (
	"sort"

	"incdb/internal/algebra"
)

// Optimize returns an expression equivalent to e under both modes and both
// semantics, with selections split and pushed toward the leaves and
// cascading projections collapsed. The catalog is needed to compute input
// arities when pushing conditions through products.
func Optimize(e algebra.Expr, cat algebra.Catalog) algebra.Expr {
	switch e := e.(type) {
	case algebra.Rel, algebra.Dom:
		return e
	case algebra.Select:
		in := Optimize(e.In, cat)
		conjs := splitAnd(e.Cond)
		if len(conjs) == 0 { // σ_true: the filter keeps everything
			return in
		}
		// Push the last conjunct first so the stack reads left-to-right
		// from the outside in, mirroring the original ∧ order.
		for i := len(conjs) - 1; i >= 0; i-- {
			in = pushSel(in, conjs[i], cat)
		}
		return in
	case algebra.Project:
		in := Optimize(e.In, cat)
		switch inner := in.(type) {
		case algebra.Project:
			// π_a(π_b(X)) = π_{b∘a}(X).
			cols := make([]int, len(e.Cols))
			for i, c := range e.Cols {
				cols[i] = inner.Cols[c]
			}
			return algebra.Project{In: inner.In, Cols: cols}
		case algebra.Union:
			// π distributes over ∪ under both semantics (bag projection
			// sums after or before the union's addition equally).
			return algebra.Union{
				L: algebra.Project{In: inner.L, Cols: e.Cols},
				R: algebra.Project{In: inner.R, Cols: e.Cols},
			}
		}
		return algebra.Project{In: in, Cols: e.Cols}
	case algebra.Product:
		return algebra.Product{L: Optimize(e.L, cat), R: Optimize(e.R, cat)}
	case algebra.Union:
		return algebra.Union{L: Optimize(e.L, cat), R: Optimize(e.R, cat)}
	case algebra.Diff:
		return algebra.Diff{L: Optimize(e.L, cat), R: Optimize(e.R, cat)}
	case algebra.Intersect:
		return algebra.Intersect{L: Optimize(e.L, cat), R: Optimize(e.R, cat)}
	case algebra.Divide:
		return algebra.Divide{L: Optimize(e.L, cat), R: Optimize(e.R, cat)}
	case algebra.AntiUnify:
		return algebra.AntiUnify{L: Optimize(e.L, cat), R: Optimize(e.R, cat)}
	}
	return e
}

// pushSel pushes the single conjunct c as deep into in as its column
// references allow, wrapping a σ at the deepest legal position.
func pushSel(in algebra.Expr, c algebra.Cond, cat algebra.Catalog) algebra.Expr {
	switch e := in.(type) {
	case algebra.Product:
		cols := condCols(c)
		la := algebra.Arity(e.L, cat)
		ra := algebra.Arity(e.R, cat)
		if len(cols) > 0 {
			lo, hi := cols[0], cols[len(cols)-1]
			if hi < la {
				return algebra.Product{L: pushSel(e.L, c, cat), R: e.R}
			}
			if lo >= la && hi < la+ra {
				return algebra.Product{L: e.L, R: pushSel(e.R, shiftCond(c, -la), cat)}
			}
		}
	case algebra.Union:
		// σ_c(L ∪ R) = σ_c(L) ∪ σ_c(R): the filter is per tuple and union
		// adds multiplicities, so it distributes under both semantics.
		return algebra.Union{L: pushSel(e.L, c, cat), R: pushSel(e.R, c, cat)}
	case algebra.Select:
		// Dive below an existing selection; σ application order does not
		// matter for the keep-t filter.
		return algebra.Select{In: pushSel(e.In, c, cat), Cond: e.Cond}
	case algebra.Project:
		// σ_c(π_m(X)) = π_m(σ_{c∘m}(X)): re-index the condition through the
		// projection map and keep pushing.
		return algebra.Project{In: pushSel(e.In, remapCond(c, e.Cols), cat), Cols: e.Cols}
	case algebra.Diff:
		// Filtering the minuend first is equivalent: a tuple survives −
		// only if it came from L.
		return algebra.Diff{L: pushSel(e.L, c, cat), R: e.R}
	case algebra.Intersect:
		return algebra.Intersect{L: pushSel(e.L, c, cat), R: e.R}
	case algebra.AntiUnify:
		// The anti-semijoin keeps a subset of L's rows with their
		// multiplicities; a per-tuple filter on the output equals filtering
		// L first.
		return algebra.AntiUnify{L: pushSel(e.L, c, cat), R: e.R}
	}
	return algebra.Select{In: in, Cond: c}
}

// splitAnd flattens the ∧-structure of c into conjuncts, dropping trivially
// true ones. Or/Not subtrees are conjunct atoms — they are not entered.
func splitAnd(c algebra.Cond) []algebra.Cond {
	var out []algebra.Cond
	var walk func(c algebra.Cond)
	walk = func(c algebra.Cond) {
		switch c := c.(type) {
		case algebra.And:
			walk(c.L)
			walk(c.R)
		case algebra.True:
			// dropped: σ_true keeps every row in both modes
		default:
			out = append(out, c)
		}
	}
	walk(c)
	return out
}

// condCols returns the sorted distinct column indices c reads: the ones
// mapCond visits.
func condCols(c algebra.Cond) []int {
	seen := map[int]bool{}
	mapCond(c, func(i int) int {
		seen[i] = true
		return i
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// shiftCond re-indexes every column reference of c by delta.
func shiftCond(c algebra.Cond, delta int) algebra.Cond {
	return mapCond(c, func(i int) int { return i + delta })
}

// remapCond rewrites column i of c to cols[i] — the inverse image of a
// projection.
func remapCond(c algebra.Cond, cols []int) algebra.Cond {
	return mapCond(c, func(i int) int { return cols[i] })
}

func mapCond(c algebra.Cond, f func(int) int) algebra.Cond {
	switch c := c.(type) {
	case algebra.Eq:
		return algebra.Eq{I: f(c.I), J: f(c.J)}
	case algebra.Neq:
		return algebra.Neq{I: f(c.I), J: f(c.J)}
	case algebra.Less:
		return algebra.Less{I: f(c.I), J: f(c.J)}
	case algebra.EqConst:
		return algebra.EqConst{I: f(c.I), C: c.C}
	case algebra.NeqConst:
		return algebra.NeqConst{I: f(c.I), C: c.C}
	case algebra.LessConst:
		return algebra.LessConst{I: f(c.I), C: c.C}
	case algebra.GreaterConst:
		return algebra.GreaterConst{I: f(c.I), C: c.C}
	case algebra.IsNull:
		return algebra.IsNull{I: f(c.I)}
	case algebra.IsConst:
		return algebra.IsConst{I: f(c.I)}
	case algebra.And:
		return algebra.And{L: mapCond(c.L, f), R: mapCond(c.R, f)}
	case algebra.Or:
		return algebra.Or{L: mapCond(c.L, f), R: mapCond(c.R, f)}
	case algebra.Not:
		return algebra.Not{C: mapCond(c.C, f)}
	case algebra.InSub:
		cols := make([]int, len(c.Cols))
		for i, x := range c.Cols {
			cols[i] = f(x)
		}
		return algebra.InSub{Cols: cols, Sub: c.Sub}
	}
	return c // True, False
}
