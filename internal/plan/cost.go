package plan

import (
	"math"

	"incdb/internal/algebra"
	"incdb/internal/relation"
)

// The cost model. Estimated cardinalities flow bottom-up through the
// physical compiler (pbase.est, pbase.colDist) from per-relation statistics
// snapshots, and compileCluster uses them to order the joins of a flattened
// σ/× cluster: System-R-style, left-deep, minimizing the sum of
// intermediate result sizes plus hash-build sizes. The estimates never
// affect answers — only the join order and build/probe sides — so a stale
// or absent estimate degrades speed, never correctness (the adversarial
// stale-stats equivalence test pins this).

// statsProvider is the optional catalog capability the cost model draws
// statistics from; *relation.Database satisfies it. Catalogs that only
// answer arities (tests, translation shims) compile with estimates absent
// and the join order stays syntactic.
type statsProvider interface {
	Relation(name string) *relation.Relation
}

// dpMaxInputs bounds the exact DP-over-subsets ordering; clusters joining
// more inputs fall back to the greedy minimum-growth order.
const dpMaxInputs = 8

// buildWeight charges a hash-build row more than an intermediate row: an
// insert pays hashing plus table growth, while an intermediate row is one
// batch slot. It also breaks the chain-query tie toward probing the large
// relation through small build tables instead of building the large one.
const buildWeight = 2

// selCond estimates the selectivity of one condition. dist(col) returns the
// (≥1) distinct-value estimate of a column; nullFrac(col) returns the
// fraction of rows whose column is null, or -1 when unknown. Equality
// selectivities use the textbook 1/max(d_l, d_r); range predicates the
// conventional 1/3; connectives combine under an independence assumption.
func selCond(c algebra.Cond, dist func(int) float64, nullFrac func(int) float64) float64 {
	switch c := c.(type) {
	case algebra.True:
		return 1
	case algebra.False:
		return 0
	case algebra.Eq:
		return 1 / max(dist(c.I), dist(c.J))
	case algebra.EqConst:
		return 1 / dist(c.I)
	case algebra.Neq:
		return 1 - 1/max(dist(c.I), dist(c.J))
	case algebra.NeqConst:
		return 1 - 1/dist(c.I)
	case algebra.Less, algebra.LessConst, algebra.GreaterConst:
		return 1.0 / 3
	case algebra.IsNull:
		if f := nullFrac(c.I); f >= 0 {
			return f
		}
		return 0.1
	case algebra.IsConst:
		if f := nullFrac(c.I); f >= 0 {
			return 1 - f
		}
		return 0.9
	case algebra.And:
		return selCond(c.L, dist, nullFrac) * selCond(c.R, dist, nullFrac)
	case algebra.Or:
		s, t := selCond(c.L, dist, nullFrac), selCond(c.R, dist, nullFrac)
		return s + t - s*t
	case algebra.Not:
		return 1 - selCond(c.C, dist, nullFrac)
	case algebra.InSub:
		return 0.5
	}
	return 0.5
}

// noNullFrac is the nullFrac callback for contexts without per-column null
// statistics.
func noNullFrac(int) float64 { return -1 }

// distOfNode returns the distinct-value callback over a node's (narrowed)
// columns, clamped to [1, est].
func distOfNode(n pnode) func(int) float64 {
	b := n.base()
	return func(col int) float64 {
		d := b.colDist[col]
		if b.est >= 1 && d > b.est {
			d = b.est
		}
		return max(d, 1)
	}
}

// nullFracOfNode returns per-column null fractions when the node is a base
// scan (exact from the stats block), unknown otherwise.
func nullFracOfNode(n pnode) func(int) float64 {
	if s, ok := n.(*pscan); ok && s.nullFrac != nil {
		return func(col int) float64 { return s.nullFrac[col] }
	}
	return noNullFrac
}

// capDist caps distinct estimates at the row estimate (a column cannot hold
// more distinct values than the node has rows).
func capDist(d []float64, est float64) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		if est >= 1 && v > est {
			v = est
		}
		out[i] = max(v, 1)
	}
	return out
}

// costable reports whether every cluster input carries usable estimates.
func costable(nodes []pnode) bool {
	for _, n := range nodes {
		if b := n.base(); b.est < 0 || b.colDist == nil {
			return false
		}
	}
	return true
}

// crossConj is one cross-input conjunct for ordering purposes: the bitmask
// of inputs it touches and its estimated selectivity.
type crossConj struct {
	mask uint
	sel  float64
}

// orderJoins picks a left-deep join order over the cluster inputs using the
// order-independent cardinality model card(S) = Π rows(i) × Π sel(conjs ⊆ S)
// and the cost Σ_steps (card(prefix) + buildWeight·rows(build side)): the
// intermediate sizes every later operator pays for, plus the hash tables
// built. Up to dpMaxInputs inputs the minimum is exact (DP over subsets);
// beyond that a greedy minimum-growth order. Returns the order plus per-step
// estimated cardinality and cost (step 0: the first input, cost 0).
// Deterministic: ties resolve toward the lowest input index.
func orderJoins(rows []float64, conjs []crossConj) (order []int, est, cost []float64) {
	n := len(rows)
	if n > dpMaxInputs {
		order = greedyOrder(rows, conjs)
	} else {
		order = dpOrder(rows, conjs)
	}
	// Walk the chosen order once to report per-step estimates.
	est = make([]float64, n)
	cost = make([]float64, n)
	mask := uint(1) << order[0]
	est[0] = rows[order[0]]
	for s := 1; s < n; s++ {
		mask |= 1 << order[s]
		est[s] = cardOf(mask, rows, conjs)
		cost[s] = est[s] + buildWeight*rows[order[s]]
	}
	return order, est, cost
}

// cardOf estimates the join cardinality of the input subset mask.
func cardOf(mask uint, rows []float64, conjs []crossConj) float64 {
	c := 1.0
	for i := range rows {
		if mask>>i&1 == 1 {
			c *= rows[i]
		}
	}
	for _, cj := range conjs {
		if cj.mask&mask == cj.mask {
			c *= cj.sel
		}
	}
	return c
}

func dpOrder(rows []float64, conjs []crossConj) []int {
	n := len(rows)
	full := uint(1)<<n - 1
	cost := make([]float64, full+1)
	last := make([]int, full+1)
	card := make([]float64, full+1)
	for m := uint(1); m <= full; m++ {
		cost[m] = math.Inf(1)
		last[m] = -1
		card[m] = cardOf(m, rows, conjs)
	}
	for i := 0; i < n; i++ {
		cost[uint(1)<<i] = 0
	}
	for m := uint(1); m <= full; m++ {
		if m&(m-1) == 0 { // singleton
			continue
		}
		for j := 0; j < n; j++ {
			bit := uint(1) << j
			if m&bit == 0 {
				continue
			}
			if cand := cost[m&^bit] + card[m] + buildWeight*rows[j]; cand < cost[m] {
				cost[m] = cand
				last[m] = j
			}
		}
	}
	order := make([]int, n)
	m := full
	for s := n - 1; s >= 1; s-- {
		order[s] = last[m]
		m &^= uint(1) << last[m]
	}
	// m is now the singleton that starts the chain.
	for i := 0; i < n; i++ {
		if m == uint(1)<<i {
			order[0] = i
		}
	}
	return order
}

func greedyOrder(rows []float64, conjs []crossConj) []int {
	n := len(rows)
	start := 0
	for i := 1; i < n; i++ {
		if rows[i] < rows[start] {
			start = i
		}
	}
	order := []int{start}
	mask := uint(1) << start
	for len(order) < n {
		best, bestCard := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				continue
			}
			c := cardOf(mask|uint(1)<<j, rows, conjs) + buildWeight*rows[j]
			if c < bestCard || (c == bestCard && best >= 0 && rows[j] < rows[best]) {
				best, bestCard = j, c
			}
		}
		order = append(order, best)
		mask |= uint(1) << best
	}
	return order
}
