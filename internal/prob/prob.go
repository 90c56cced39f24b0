// Package prob implements the probabilistic framework of Section 4.3 of
// the paper: the probability µ(Q, D, ā) that a randomly chosen valuation
// witnesses ā as an answer, its finite restrictions µᵏ over valuations
// into {c₁,…,c_k}, and the conditional probability µ(Q|Σ, D, ā) under
// integrity constraints Σ.
//
// All probabilities are exact rationals (math/big). The asymptotic values
// are computed symbolically by enumerating *patterns*: a pattern assigns
// each null either a relevant constant (one occurring in D, Q or Σ) or an
// anonymous fresh class; all valuations realizing the same pattern agree
// on the events of interest (genericity), and a pattern with m fresh
// classes is realized by (k−|R|)(k−|R|−1)⋯(k−|R|−m+1) valuations into
// {c₁,…,c_k}. Both µᵏ numerator and denominator are therefore polynomials
// in k, and the limit is the ratio of their leading coefficients —
// Theorem 4.10's 0–1 law and Theorem 4.11's rational convergence both fall
// out of this computation.
package prob

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// MaxNulls bounds the pattern/valuation enumerations; both are exponential
// in the number of nulls (computing µ exactly is FP^#P-hard, Section 4.3).
const MaxNulls = 8

// sigmaWorld builds the worlds v(D) one worker checks Σ on. Constraints are
// Boolean queries over a complete database, not query plans, so they need
// the world itself — but only the relations that have nulls are instantiated
// per world; the null-free ones are adopted from D once, read-only.
type sigmaWorld struct {
	sigma constraint.Set
	world *relation.Database
	nulls []*relation.Relation
}

// newSigmaWorld returns nil when there is nothing to check.
func newSigmaWorld(db *relation.Database, sigma constraint.Set) *sigmaWorld {
	if sigma == nil {
		return nil
	}
	w := &sigmaWorld{sigma: sigma, world: relation.NewDatabase()}
	for _, name := range db.Names() {
		r := db.Relation(name)
		if r.HasNulls() {
			w.nulls = append(w.nulls, r)
		} else {
			w.world.Add(r)
		}
	}
	return w
}

// holds reports v(D) ⊨ Σ.
func (w *sigmaWorld) holds(v value.Valuation) bool {
	if w == nil {
		return true
	}
	for _, r := range w.nulls {
		w.world.Add(r.Apply(v))
	}
	return w.sigma.Holds(w.world)
}

// MuK computes µᵏ(Q|Σ, D, ā): the fraction of valuations v with range in
// {c₁,…,c_k} that satisfy v(D) ⊨ Σ and v(ā) ∈ Q(v(D)), among those
// satisfying Σ. A nil Σ is the unconditional µᵏ of (the display before)
// Theorem 4.10. The first k constants are taken as the relevant constants
// R followed by fresh ones; k must be at least |R| for the value to be
// enumeration-independent, and the enumeration costs kⁿ worlds. The kⁿ
// valuations are counted on certain's world loop, sharded over
// opts.Workers with per-shard counters summed, so the result is independent
// of the worker count; opts.Prep, Trace and Ctx act as for the oracles, and
// MaxWorlds is not read.
func MuK(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, opts certain.Options) (*big.Rat, error) {
	num, den, err := suppCounts(db, q, sigma, tuple, k, opts)
	if err != nil {
		return nil, err
	}
	if den == 0 {
		return big.NewRat(0, 1), nil
	}
	return big.NewRat(num, den), nil
}

// suppCounts enumerates the kⁿ valuations once and returns
// (|Suppᵏ(Σ∧Q)|, |Suppᵏ(Σ)|); with nil Σ the denominator counts every
// valuation. A world failing Σ is never evaluated.
func suppCounts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, opts certain.Options) (int64, int64, error) {
	ids := db.NullIDs()
	if len(ids) > MaxNulls {
		return 0, 0, fmt.Errorf("prob: %d nulls exceed MaxNulls=%d", len(ids), MaxNulls)
	}
	k0 := max(k, 0)
	rng := certain.Range(db, append(algebra.ConstsOf(q), tuple...), k0) // R, then k fresh constants
	if rel := len(rng) - k0; k < rel {
		return 0, 0, fmt.Errorf("prob: k=%d below |R|=%d; µᵏ would depend on the enumeration", k, rel)
	}
	// µᵏ is bounded by MaxNulls, not by MaxWorlds: only an overflowing kⁿ
	// is refused.
	space, err := certain.SpaceOf(ids, value.Uniform(len(ids), rng[:k0]), math.MaxInt)
	if err != nil {
		return 0, 0, err
	}
	type counts struct{ num, den int64 }
	parts, err := certain.EachShard(space, opts.Prep.Get(db, q, algebra.ModeNaive, false), opts,
		func(worlds certain.Worlds) (c counts, _ error) {
			sw := newSigmaWorld(db, sigma)
			// One instantiation buffer per worker shard; ā is tiny but the
			// enumeration visits kⁿ worlds, so per-world allocations add up.
			buf := make(value.Tuple, len(tuple))
			worlds(func(r plan.Runner, v value.Valuation) bool {
				if sw.holds(v) {
					c.den++
					if r.Eval(v).Contains(v.ApplyInto(buf, tuple)) {
						c.num++
					}
				}
				return true
			})
			return c, nil
		})
	if err != nil {
		return 0, 0, err
	}
	var num, den int64
	for _, p := range parts {
		num += p.num
		den += p.den
	}
	return num, den, nil
}

// patternWalk is Mu's walk over the pattern tree: the nulls and their
// relevant and fresh choices, the Runner the leaves are evaluated on, the
// valuation it extends in place, an instantiation buffer for the tuple (the
// enumeration is exponential in the nulls, so leaf checks must not
// allocate), its Σ worlds, and the coefficients it accumulates — num[m] /
// den[m] count the patterns with m fresh classes satisfying Σ∧Q, resp. Σ.
type patternWalk struct {
	ids        []uint64
	rel, fresh []value.Value
	tuple, buf value.Tuple
	ctx        context.Context
	r          plan.Runner
	v          value.Valuation
	sw         *sigmaWorld
	num, den   []int64
}

// count enumerates the patterns extending w.v from position i with the
// given number of fresh classes already open. Each null gets either a
// relevant constant or a fresh class in restricted-growth order (class b
// may be used at position i only if classes 0..b-1 appear before).
// Cancellation is polled once per inner node, not per leaf.
func (w *patternWalk) count(i, classes int) {
	if i == len(w.ids) {
		if !w.sw.holds(w.v) {
			return
		}
		w.den[classes]++
		if w.r.Eval(w.v).Contains(w.v.ApplyInto(w.buf, w.tuple)) {
			w.num[classes]++
		}
		return
	}
	if w.ctx.Err() != nil {
		return
	}
	for j := range w.rel {
		w.v.Set(w.ids[i], w.rel[j])
		w.count(i+1, classes)
	}
	for b := 0; b <= classes && b < len(w.fresh); b++ {
		w.v.Set(w.ids[i], w.fresh[b])
		next := classes
		if b == classes {
			next = classes + 1
		}
		w.count(i+1, next)
	}
}

// Mu computes the asymptotic µ(Q|Σ, D, ā) = lim_k µᵏ exactly, by pattern
// enumeration. With nil Σ the result is 0 or 1 (Theorem 4.10); with
// constraints it is an arbitrary rational in [0,1] (Theorem 4.11). The
// convention µ = 0 applies when no valuation satisfies Σ. The pattern tree,
// bounded by MaxNulls, is walked once on the calling goroutine; opts.Prep,
// Trace and Ctx act as for the oracles, and Workers and MaxWorlds are not
// read.
func Mu(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, opts certain.Options) (*big.Rat, error) {
	ids := db.NullIDs()
	if len(ids) > MaxNulls {
		return nil, fmt.Errorf("prob: %d nulls exceed MaxNulls=%d", len(ids), MaxNulls)
	}
	rng := certain.Range(db, append(algebra.ConstsOf(q), tuple...), len(ids))
	w := &patternWalk{ids: ids, rel: rng[:len(rng)-len(ids)], fresh: rng[len(rng)-len(ids):],
		tuple: tuple, buf: make(value.Tuple, len(tuple)), ctx: opts.Context(),
		r: opts.Prep.Get(db, q, algebra.ModeNaive, false).Runner(opts.Trace), v: value.NewValuation(),
		sw: newSigmaWorld(db, sigma), num: make([]int64, len(ids)+1), den: make([]int64, len(ids)+1)}
	defer w.r.Close()
	w.count(0, 0)
	// A cancelled walk stopped early: its coefficients are partial.
	if err := w.ctx.Err(); err != nil {
		return nil, err
	}

	// Leading degree of the denominator polynomial.
	top := -1
	for m := len(ids); m >= 0; m-- {
		if w.den[m] > 0 {
			top = m
			break
		}
	}
	if top < 0 {
		return big.NewRat(0, 1), nil // Σ unsatisfiable over every k
	}
	return big.NewRat(w.num[top], w.den[top]), nil
}

// AlmostCertainlyTrue reports whether µ(Q, D, ā) = 1. By Theorem 4.10 this
// holds iff ā ∈ Qnaïve(D); the implementation goes through the pattern
// computation, and the equivalence with naive evaluation is verified by
// the test suite.
func AlmostCertainlyTrue(db *relation.Database, q algebra.Expr, tuple value.Tuple) (bool, error) {
	mu, err := Mu(db, q, nil, tuple, certain.Options{})
	if err != nil {
		return false, err
	}
	return mu.Cmp(big.NewRat(1, 1)) == 0, nil
}

// SuppCount returns |Suppᵏ(Σ∧Q)| and |Suppᵏ(Σ)| for diagnostics: the raw
// counts behind µᵏ (with nil Σ the second count is all kⁿ valuations).
func SuppCount(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int) (sat, total int, err error) {
	num, den, err := suppCounts(db, q, sigma, tuple, k, certain.Options{})
	if err != nil {
		return 0, 0, err
	}
	return int(num), int(den), nil
}
