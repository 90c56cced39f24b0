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
	"math/big"
	"strconv"

	"incdb/internal/algebra"
	"incdb/internal/constraint"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// MaxNulls bounds the pattern/valuation enumerations; both are exponential
// in the number of nulls (computing µ exactly is FP^#P-hard, Section 4.3).
const MaxNulls = 8

// Options configures the probabilistic procedures beyond their engine
// pool: Prep, when non-nil, supplies version-guarded prepared plans that
// survive across invocations (REPL/server workloads), exactly like
// certain.Options.Prep. Results never depend on any field.
type Options struct {
	Engine engine.Options
	Prep   *plan.PrepCache
	// Trace, when non-nil, accumulates execution statistics across the
	// whole enumeration (Execs = worlds evaluated, FrozenReuse =
	// frozen-part serves), exactly like certain.Options.Trace. Shared by
	// all worker shards; results are identical with or without it.
	Trace *plan.Trace
	// Ctx, when non-nil, cancels the enumeration, exactly like
	// certain.Options.Ctx.
	Ctx context.Context
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// prepared returns the plan every world of the enumeration runs on. As in
// internal/certain a world is a valuation handed to the executor, never a
// rebuilt database: each worker shard takes one plan.Runner and the answer
// in v(D) comes back as (frozen, Δ(v)), so the µᵏ counting loop pays for
// the null rows, not for the database.
func (o Options) prepared(db *relation.Database, q algebra.Expr) *plan.Prepared {
	return o.Prep.Get(db, q, algebra.ModeNaive, false)
}

// pollInterval is how many worlds a worker evaluates between cancellation
// checks.
const pollInterval = 64

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

// relevantConsts collects R = Const(D) ∪ consts(Q) ∪ consts(ā).
func relevantConsts(db *relation.Database, q algebra.Expr, tuple value.Tuple) []value.Value {
	seen := map[value.Value]bool{}
	var out []value.Value
	add := func(v value.Value) {
		if v.IsConst() && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, c := range db.Consts() {
		add(c)
	}
	for _, c := range algebra.ConstsOf(q) {
		add(c)
	}
	for _, v := range tuple {
		add(v)
	}
	return out
}

// freshConsts returns m constants outside the avoid set.
func freshConsts(m int, avoid []value.Value) []value.Value {
	have := map[value.Value]bool{}
	for _, v := range avoid {
		have[v] = true
	}
	var out []value.Value
	for i := 0; len(out) < m; i++ {
		c := value.Const("✶" + strconv.Itoa(i))
		if !have[c] {
			out = append(out, c)
		}
	}
	return out
}

// MuK computes µᵏ(Q|Σ, D, ā): the fraction of valuations v with range in
// {c₁,…,c_k} that satisfy v(D) ⊨ Σ and v(ā) ∈ Q(v(D)), among those
// satisfying Σ. A nil Σ is the unconditional µᵏ of (the display before)
// Theorem 4.10. The first k constants are taken as the relevant constants
// R followed by fresh ones; k must be at least |R| for the value to be
// enumeration-independent, and the enumeration costs kⁿ worlds.
func MuK(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int) (*big.Rat, error) {
	return MuKWith(db, q, sigma, tuple, k, engine.Options{})
}

// MuKWith is MuK with an explicit worker pool: the kⁿ valuations are
// sharded across eng's workers and the per-shard counters summed, so the
// result is independent of the worker count.
func MuKWith(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, eng engine.Options) (*big.Rat, error) {
	return MuKOpts(db, q, sigma, tuple, k, Options{Engine: eng})
}

// MuKOpts is MuKWith with full Options (worker pool and prepared-plan
// reuse across calls).
func MuKOpts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, opts Options) (*big.Rat, error) {
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
// valuation.
func suppCounts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, opts Options) (int64, int64, error) {
	eng := opts.Engine
	ids := db.NullIDs()
	if len(ids) > MaxNulls {
		return 0, 0, fmt.Errorf("prob: %d nulls exceed MaxNulls=%d", len(ids), MaxNulls)
	}
	rel := relevantConsts(db, q, tuple)
	if k < len(rel) {
		return 0, 0, fmt.Errorf("prob: k=%d below |R|=%d; µᵏ would depend on the enumeration", k, len(rel))
	}
	rng := append(append([]value.Value{}, rel...), freshConsts(k-len(rel), rel)...)
	total := value.EnumSize(ids, rng)
	if total < 0 {
		return 0, 0, fmt.Errorf("prob: %d^%d valuations overflow the enumeration", len(rng), len(ids))
	}
	// Compile and prepare the query once for the whole kⁿ enumeration; the
	// prepared plan is shared by all worker shards (and, with opts.Prep,
	// reused across calls under its version guard).
	prep := opts.prepared(db, q)
	type counts struct{ num, den int64 }
	shards := [][2]int{{0, total}}
	if eng.WorkerCount() > 1 && total >= engine.MinParallel {
		shards = engine.Split(total, eng.WorkerCount()*4)
	}
	parts, err := engine.Map(opts.ctx(), eng, len(shards),
		func(ctx context.Context, si int) (c counts, _ error) {
			r := prep.Runner(opts.Trace)
			defer r.Close()
			sw := newSigmaWorld(db, sigma)
			// One instantiation buffer per worker shard; ā is tiny but the
			// enumeration visits kⁿ worlds, so per-world allocations add up.
			buf := make(value.Tuple, len(tuple))
			step := 0
			value.EnumValuations(ids, rng, shards[si][0], shards[si][1], func(v value.Valuation) bool {
				if step++; step%pollInterval == 0 && engine.Canceled(ctx) {
					return false
				}
				if !sw.holds(v) {
					return true
				}
				c.den++
				if r.Eval(v).Contains(v.ApplyInto(buf, tuple)) {
					c.num++
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

// Mu computes the asymptotic µ(Q|Σ, D, ā) = lim_k µᵏ exactly, by pattern
// enumeration. With nil Σ the result is 0 or 1 (Theorem 4.10); with
// constraints it is an arbitrary rational in [0,1] (Theorem 4.11). The
// convention µ = 0 applies when no valuation satisfies Σ.
func Mu(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple) (*big.Rat, error) {
	return MuWith(db, q, sigma, tuple, engine.Options{})
}

// patternEnum carries the fixed inputs of the Mu pattern enumeration so
// that independent subtrees can be counted by separate workers.
type patternEnum struct {
	db    *relation.Database
	sigma constraint.Set
	tuple value.Tuple
	ids   []uint64
	rel   []value.Value
	fresh []value.Value
	// prep is the prepared plan shared by every branch worker, each of
	// which evaluates its worlds through a Runner of its own.
	prep  *plan.Prepared
	trace *plan.Trace
	ctx   context.Context
}

// patternWalk is one worker's state over the pattern tree: its Runner, the
// valuation it extends in place, an instantiation buffer for the tuple (the
// enumeration is exponential in the nulls, so leaf checks must not
// allocate), its Σ worlds, and the coefficients it accumulates — num[m] /
// den[m] count the patterns with m fresh classes satisfying Σ∧Q, resp. Σ.
type patternWalk struct {
	*patternEnum
	r        plan.Runner
	v        value.Valuation
	buf      value.Tuple
	sw       *sigmaWorld
	num, den []int64
}

func (e *patternEnum) walk() *patternWalk {
	return &patternWalk{patternEnum: e, r: e.prep.Runner(e.trace), v: value.NewValuation(),
		buf: make(value.Tuple, len(e.tuple)), sw: newSigmaWorld(e.db, e.sigma),
		num: make([]int64, len(e.ids)+1), den: make([]int64, len(e.ids)+1)}
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
	if engine.Canceled(w.ctx) {
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

// MuWith is Mu with an explicit worker pool. The pattern tree is sharded on
// the first null's choice (each relevant constant, or the first fresh
// class); the per-branch polynomial coefficients are summed, so the result
// is independent of the worker count.
func MuWith(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, eng engine.Options) (*big.Rat, error) {
	return MuOpts(db, q, sigma, tuple, Options{Engine: eng})
}

// MuOpts is MuWith with full Options (worker pool and prepared-plan reuse
// across calls).
func MuOpts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, opts Options) (*big.Rat, error) {
	eng := opts.Engine
	ids := db.NullIDs()
	if len(ids) > MaxNulls {
		return nil, fmt.Errorf("prob: %d nulls exceed MaxNulls=%d", len(ids), MaxNulls)
	}
	rel := relevantConsts(db, q, tuple)
	fresh := freshConsts(len(ids), rel)
	e := &patternEnum{db: db, sigma: sigma, tuple: tuple, ids: ids, rel: rel, fresh: fresh,
		prep: opts.prepared(db, q), trace: opts.Trace, ctx: opts.ctx()}

	branches := len(rel) + 1 // first null's choices: each c ∈ R, or fresh class 0
	// Pattern count is bounded by the valuations into R ∪ fresh; below the
	// engine threshold the serial walk wins, like every other oracle here.
	bound := value.EnumSize(ids, append(append([]value.Value{}, rel...), fresh...))
	small := bound >= 0 && bound < engine.MinParallel
	var parts []*patternWalk
	if len(ids) == 0 || eng.WorkerCount() == 1 || branches == 1 || small {
		w := e.walk()
		w.count(0, 0)
		w.r.Close()
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		parts = []*patternWalk{w}
	} else {
		var err error
		parts, err = engine.Map(e.ctx, eng, branches,
			func(_ context.Context, bi int) (*patternWalk, error) {
				w := e.walk()
				defer w.r.Close()
				if bi < len(rel) {
					w.v.Set(ids[0], rel[bi])
					w.count(1, 0)
				} else {
					w.v.Set(ids[0], fresh[0])
					w.count(1, 1)
				}
				return w, nil
			})
		if err != nil {
			return nil, err
		}
	}
	// Summing the per-branch polynomial coefficients makes the result
	// independent of the worker count.
	numTop := make([]int64, len(ids)+1)
	denTop := make([]int64, len(ids)+1)
	for _, p := range parts {
		for m := range numTop {
			numTop[m] += p.num[m]
			denTop[m] += p.den[m]
		}
	}

	// Leading degree of the denominator polynomial.
	top := -1
	for m := len(ids); m >= 0; m-- {
		if denTop[m] > 0 {
			top = m
			break
		}
	}
	if top < 0 {
		return big.NewRat(0, 1), nil // Σ unsatisfiable over every k
	}
	return big.NewRat(numTop[top], denTop[top]), nil
}

// AlmostCertainlyTrue reports whether µ(Q, D, ā) = 1. By Theorem 4.10 this
// holds iff ā ∈ Qnaïve(D); the implementation goes through the pattern
// computation, and the equivalence with naive evaluation is verified by
// the test suite.
func AlmostCertainlyTrue(db *relation.Database, q algebra.Expr, tuple value.Tuple) (bool, error) {
	mu, err := Mu(db, q, nil, tuple)
	if err != nil {
		return false, err
	}
	return mu.Cmp(big.NewRat(1, 1)) == 0, nil
}

// SuppCount returns |Suppᵏ(Σ∧Q)| and |Suppᵏ(Σ)| for diagnostics: the raw
// counts behind µᵏ (with nil Σ the second count is all kⁿ valuations).
func SuppCount(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int) (sat, total int, err error) {
	num, den, err := suppCounts(db, q, sigma, tuple, k, Options{})
	if err != nil {
		return 0, 0, err
	}
	return int(num), int(den), nil
}
