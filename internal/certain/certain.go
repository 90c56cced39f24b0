// Package certain computes the exact certainty notions of Section 3 of the
// paper for relational algebra queries under the closed-world semantics:
//
//   - cert⊥(Q, D), certain answers with nulls (Definition 3.9):
//     { t̄ | v(t̄) ∈ Q(v(D)) for every valuation v };
//   - cert∩(Q, D), intersection-based certain answers (Definition 3.7):
//     ⋂_{D' ∈ ⟦D⟧} Q(D');
//   - Boolean certainty and possibility;
//   - the bag-semantics multiplicity bounds □Q and ◇Q of Section 4.2
//     ((6a) and (6b)).
//
// All of these are computed by enumerating a finite valuation space. By
// genericity (Section 2) a query's behaviour depends only on the
// isomorphism type of the database over the constants mentioned in the
// query, class by class of the columns it compares (algebra.ColumnClasses),
// so a null of class K ranges over Const_K(D) ∪ consts_K(Q) ∪ F_K where F_K
// holds |nulls in K| + 1 fresh constants: any valuation is isomorphic, class
// by class over the relevant constants, to one in this space, and the extra
// fresh constant refutes spurious fresh tuples in intersections. Classes an
// order comparison or an unmodelled operator pins, every class of a query
// reading Dom, and µᵏ and µ (internal/prob), which range over constants by
// definition, keep the shared Range: Const(D) ∪ consts(Q) ∪ |nulls| + 1
// fresh constants. The enumeration is exponential in the number of nulls —
// certain answers are coNP-hard (Theorem 3.12), so an exact oracle cannot
// do better — and is therefore guarded by Options.MaxWorlds. The package is
// the ground-truth oracle against which the tractable approximations of
// Section 4 are tested.
//
// The only lever an exact oracle has is therefore the cost of one world,
// and the unit of per-world work here is the null rows, not the database.
// The query is prepared once (plan.Prepared) into the (frozen, Δ) form: its
// answer in the world v(D) is Frozen ∪ Δ(v), where Frozen is computed once
// from the rows no valuation can change and Δ(v) per world from the
// instantiated null rows only. The oracles never build v(D) or Q(v(D)):
// they hand the executor the valuation and consume (Frozen, Δ(v)) directly.
// A null-free tuple of Frozen is an answer in every world, so it is certain
// without enumeration and only candidates outside Frozen are probed, against
// the small Δ; cert∩ = Frozen ∪ ⋂ᵥ Δ(v) folds the Δs. Operators that do
// not distribute over a union of their input rows (difference with a
// varying right side, division, bag difference, …) are barriers that
// re-emit their whole output as Δ — see plan.Prepared for which and why;
// the oracles are exact either way, a barrier at the root only makes
// Frozen empty and Δ the whole answer.
//
// Each valuation is evaluated independently of every other, so the oracle
// shards the valuation index space across an engine worker pool
// (Options.Workers) and merges the per-shard results in shard order; every
// merge below is arranged so that the parallel result is identical to the
// serial one. Early exits are decided either before sharding or by a shard
// for itself, from the worlds of its own range: the number of worlds an
// oracle evaluates depends on the database, the query and Workers, never on
// how the shards interleave.
package certain

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"incdb/internal/algebra"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Options is the one options type of every procedure that quantifies over
// valuations: the oracles here, µ and µᵏ (internal/prob), and the rows of
// core.Procs. Trace, Prep and Ctx configure how the worlds are run and are
// read by all of them (the c-table rows read none); Workers sizes the pool
// of the one world loop, EachShard, which the oracles and µᵏ run on — µ
// walks its pattern tree on the calling goroutine. MaxWorlds bounds the
// oracles' valuation space and is read only by the oracles — µᵏ ranges over
// k constants by definition and µ over patterns. Only MaxWorlds and a
// cancelled Ctx change what a call returns, and only Workers changes how
// many worlds it evaluates.
type Options struct {
	// MaxWorlds caps the number of valuations enumerated; the oracles
	// return an error beyond it. Zero means DefaultMaxWorlds.
	MaxWorlds int
	// Workers is the number of goroutines sharding the valuation
	// enumeration: 0 means one per CPU, 1 forces the serial reference
	// path. Results are independent of the setting.
	Workers int
	// Trace, when non-nil, accumulates execution statistics across the
	// oracle's whole valuation loop: Execs counts worlds evaluated (plus
	// the candidate-producing base run), FrozenReuse counts frozen-part
	// serves. Shared by all worker shards; adds two atomic increments per
	// world. Results are identical with or without it.
	Trace *plan.Trace
	// Prep, when non-nil, supplies version-guarded prepared plans that
	// survive across oracle invocations: repeated queries against an
	// unchanged database skip the row partition and reuse every frozen
	// part. Results are identical with or without it.
	Prep *plan.PrepCache
	// Ctx, when non-nil, cancels the enumeration: workers poll it every
	// pollInterval worlds and the oracle returns its error.
	Ctx context.Context
	// sharedRange puts every null on the shared Range (tests only).
	sharedRange bool
}

// DefaultMaxWorlds bounds enumeration to about a million possible worlds.
const DefaultMaxWorlds = 1 << 20

func (o Options) maxWorlds() int {
	if o.MaxWorlds <= 0 {
		return DefaultMaxWorlds
	}
	return o.MaxWorlds
}

func (o Options) engine() engine.Options { return engine.Options{Workers: o.Workers} }

// Context returns Ctx, or the background context when Ctx is nil.
func (o Options) Context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// prepared returns the (possibly cached) prepared plan the oracle's worlds
// run on: naive evaluation, since a world has no nulls left.
func (o Options) prepared(db *relation.Database, q algebra.Expr, bag bool) *plan.Prepared {
	return o.Prep.Get(db, q, algebra.ModeNaive, bag)
}

// pollInterval is how many worlds a worker evaluates between cancellation
// checks.
const pollInterval = 64

// Space is the finite valuation space used by the oracle: the null
// identifiers of D and each one's candidate range.
type Space struct {
	ids   []uint64
	rngs  [][]value.Value
	count int
}

// NewSpace builds the valuation space for db and query constants qconsts,
// quantifying over every null of the database, each over the shared Range.
func NewSpace(db *relation.Database, qconsts []value.Value, opts Options) (*Space, error) {
	return newSpace(db, db.NullIDs(), qconsts, opts, nil)
}

// NewSpaceForQuery builds the valuation space restricted to the nulls the
// query can observe: those occurring in *columns the query's plan reads*
// (every null of the database when it reads the active domain). The
// set-semantics query result Q(v(D)) does not depend on the bindings of
// other nulls, so universal and existential conditions over valuations are
// unchanged — while the enumeration shrinks from |rng|^|Null(D)| to the
// product of the relevant nulls' ranges, each that of its column class
// (newSpace). Both come from the prepared plan, so with Options.Prep a
// repeated call walks no relation.
func NewSpaceForQuery(db *relation.Database, q algebra.Expr, opts Options) (*Space, error) {
	return querySpace(db, q, opts.prepared(db, q, false), opts)
}

// querySpace is the space of a set oracle over prep, the prepared plan of q.
func querySpace(db *relation.Database, q algebra.Expr, prep *plan.Prepared, opts Options) (*Space, error) {
	return newSpace(db, prep.NullIDs(), algebra.ConstsOf(q), opts, func() *algebra.Classes { return prep.Classes(q) })
}

// spaceForTuple builds the space for tuple-level checks: the membership
// condition v(t̄) ∈ Q(v(D)) depends on the nulls in ids plus any nulls and
// constants of t̄ itself, which join the classes of their columns in a copy
// of the column classes prep keeps.
func spaceForTuple(db *relation.Database, q algebra.Expr, t value.Tuple, ids []uint64, prep *plan.Prepared, opts Options) (*Space, error) {
	seen := map[uint64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	ids = append([]uint64(nil), ids...)
	for id := range t.Nulls() {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return newSpace(db, ids, append(algebra.ConstsOf(q), t...), opts, func() *algebra.Classes { return prep.Classes(q).WithAnswer(t) })
}

// bagNulls returns the sorted nulls the bag-semantics bounds quantify over.
// Column-level pruning is not applied under bags: only whole relations the
// query never reads are pruned.
func bagNulls(db *relation.Database, q algebra.Expr) []uint64 {
	names, usesDom := algebra.RelationsOf(q)
	if usesDom {
		return db.NullIDs()
	}
	seen := map[uint64]bool{}
	ids := []uint64{}
	for _, name := range names {
		rel := db.Relation(name)
		if rel == nil || !rel.HasNulls() {
			continue
		}
		rel.EachUnordered(func(t value.Tuple, _ int) {
			for _, v := range t {
				if v.IsNull() && !seen[v.NullID()] {
					seen[v.NullID()] = true
					ids = append(ids, v.NullID())
				}
			}
		})
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// newSpace builds the space of ids. A null of column class K in classes()
// ranges over Const_K(D) ∪ consts_K(Q) and |ids in K| + 1 fresh constants;
// one without a class of its own (Classes.Class is -1), or every null when
// classes is nil, over the shared Range of db and qconsts. n fresh constants
// make the enumeration complete for cert⊥ membership of tuples over dom(D) —
// a valuation of n nulls uses at most n values outside the mentioned
// constants — and the extra one refutes in cert∩ every tuple mentioning a
// fresh constant.
func newSpace(db *relation.Database, ids []uint64, qconsts []value.Value, opts Options, classes func() *algebra.Classes) (*Space, error) {
	if len(ids) == 0 {
		// No nulls to bind: the space is the single empty valuation, and
		// the candidate range is irrelevant — skip collecting Const(D).
		// This is the hot case for complete databases and for queries whose
		// read columns are null-free (server workloads repeat those per
		// session).
		return &Space{count: 1}, nil
	}
	cl := &algebra.Classes{} // no classes: every null on the shared Range
	if classes != nil && !opts.sharedRange {
		cl = classes()
	}
	size := map[int]int{}
	for _, id := range ids {
		size[cl.Class(id)]++
	}
	rngs, byClass := make([][]value.Value, len(ids)), map[int][]value.Value{}
	for i, id := range ids {
		k := cl.Class(id)
		if byClass[k] == nil && k < 0 {
			byClass[k] = Range(db, qconsts, len(ids)+1)
		} else if byClass[k] == nil {
			consts := cl.Consts(k)
			byClass[k] = withFresh(consts, size[k]+1, func(c value.Value) bool {
				_, found := slices.BinarySearchFunc(consts, c, value.OrderCompare)
				return found
			})
		}
		rngs[i] = byClass[k]
	}
	return SpaceOf(ids, rngs, opts.maxWorlds())
}

// Range returns the relevant constants R = Const(D) ∪ consts — in that
// order, without repeats, non-constants in consts skipped — followed by
// fresh constants outside R, len(Range) − |R| = fresh of them. It is the
// range of every null the typed space gives no class of its own, and of µᵏ
// and µ (internal/prob).
func Range(db *relation.Database, consts []value.Value, fresh int) []value.Value {
	rng := append([]value.Value(nil), db.Consts()...)
	have := make(map[value.Value]bool, len(rng)+len(consts))
	for _, c := range rng {
		have[c] = true
	}
	for _, c := range consts {
		if c.IsConst() && !have[c] {
			have[c] = true
			rng = append(rng, c)
		}
	}
	return withFresh(rng, fresh, func(c value.Value) bool { return have[c] })
}

// withFresh appends n fresh constants to rng, avoiding those taken reports.
func withFresh(rng []value.Value, n int, taken func(value.Value) bool) []value.Value {
	rng = slices.Grow(rng, n)
	for i := 0; i < n; i++ {
		// Fresh constants must avoid everything present; the prefix makes
		// collisions with user data implausible and the loop rules them out.
		// The suffix keeps the candidates of different i apart.
		base := "⁑fresh" + strconv.Itoa(i)
		c := value.Const(base)
		for j := 0; taken(c); j++ {
			c = value.Const(base + "_" + strconv.Itoa(j))
		}
		rng = append(rng, c)
	}
	return rng
}

// SpaceOf returns the space of valuations of each ids[i] into rngs[i], or
// an error when it holds more than maxWorlds valuations (or more than an int
// can count).
func SpaceOf(ids []uint64, rngs [][]value.Value, maxWorlds int) (*Space, error) {
	count := value.EnumSize(rngs)
	if count < 0 || count > maxWorlds {
		return nil, fmt.Errorf("certain: valuation space of %d nulls exceeds MaxWorlds %d", len(ids), maxWorlds)
	}
	return &Space{ids: ids, rngs: rngs, count: count}, nil
}

// Size returns the number of valuations in the space.
func (s *Space) Size() int { return s.count }

// Each enumerates every valuation in the space. Stop early by returning
// false from f. The Valuation passed to f is reused between calls; f must
// not retain it.
func (s *Space) Each(f func(v value.Valuation) bool) {
	s.EachRange(0, s.count, f)
}

// EachRange enumerates the valuations whose index lies in [lo, hi), in the
// same order Each visits them (the mixed-radix odometer with ids[0] most
// significant). Disjoint ranges can be enumerated concurrently: each call
// owns its iteration state and only reads the space.
func (s *Space) EachRange(lo, hi int, f func(v value.Valuation) bool) {
	value.EnumValuations(s.ids, s.rngs, lo, hi, f)
}

// shards splits the space's index range for the pool: one range when the
// serial path should be used (one worker, or a space too small to pay for
// fan-out).
func (s *Space) shards(eng engine.Options) [][2]int {
	w := eng.WorkerCount()
	if w <= 1 || s.count < engine.MinParallel {
		return [][2]int{{0, s.count}}
	}
	// Overshard for load balance: world costs vary with the valuation.
	return engine.Split(s.count, w*4)
}

// Worlds enumerates one shard's worlds in index order: it hands visit the
// shard's Runner and each valuation of the shard's range — visit evaluates
// the world with r.Eval(v) if it needs it, the answer valid until the next
// call — until visit returns false or the procedure is cancelled.
type Worlds func(visit func(r plan.Runner, v value.Valuation) bool)

// EachShard is the one world loop of every procedure that quantifies over
// valuations. It splits the space into shards, gives each shard a Runner of
// its own — so the worlds of a shard reuse one set of buffers and allocate
// nothing — polls opts.Ctx every pollInterval worlds, and returns what scan
// made of each shard, in shard order. The first error a scan returns
// cancels the other shards and is returned. With one shard everything runs
// on the calling goroutine. It reads opts.Workers, Trace and Ctx.
func EachShard[T any](space *Space, prep *plan.Prepared, opts Options, scan func(worlds Worlds) (T, error)) ([]T, error) {
	shards := space.shards(opts.engine())
	return engine.Map(opts.Context(), opts.engine(), len(shards),
		func(ctx context.Context, si int) (T, error) {
			return scan(func(visit func(r plan.Runner, v value.Valuation) bool) {
				r := prep.Runner(opts.Trace)
				defer r.Close()
				step := 0
				space.EachRange(shards[si][0], shards[si][1], func(v value.Valuation) bool {
					if step++; step%pollInterval == 0 && engine.Canceled(ctx) {
						return false
					}
					return visit(r, v)
				})
			})
		})
}

// WithNulls computes cert⊥(Q, D) exactly. Candidates are drawn from the
// naive evaluation: instantiating Definition 3.9 with an injective
// valuation onto fresh constants shows cert⊥(Q, D) ⊆ Qnaïve(D), so nothing
// outside the naive answer can be certain. The naive answer's frozen part
// is certain as it stands; only the candidates its Δ adds are undecided,
// and when there are none no world is enumerated and no space is sized, so
// MaxWorlds refuses only a query that leaves something to decide.
func WithNulls(db *relation.Database, q algebra.Expr, opts Options) (*relation.Relation, error) {
	prep := opts.prepared(db, q, false)
	out := relation.NewArity("cert⊥", prep.Plan().Arity())
	var undecided []value.Tuple
	r := prep.Runner(opts.Trace)
	naive := r.Eval(nil)
	naive.Frozen.EachUnordered(func(t value.Tuple, _ int) { out.Add(t) })
	for _, t := range naive.Delta() {
		if !naive.Frozen.Contains(t) {
			undecided = append(undecided, t.Clone())
		}
	}
	r.Close()
	if len(undecided) == 0 {
		return out, nil
	}
	space, err := querySpace(db, q, prep, opts)
	if err != nil {
		return nil, err
	}
	alive, err := survivors(space, prep, undecided, opts)
	if err != nil {
		return nil, err
	}
	for i, t := range undecided {
		if alive[i] {
			out.Add(t)
		}
	}
	return out, nil
}

// survivors reports, per candidate outside the frozen answer, whether it is
// an answer in every world of the space. Each shard eliminates candidates
// independently — stopping once none of them is left — and the shard
// results are AND-merged, which is order-insensitive and hence identical to
// the serial elimination.
func survivors(space *Space, prep *plan.Prepared, candidates []value.Tuple, opts Options) ([]bool, error) {
	hasNull := make([]bool, len(candidates))
	for i, t := range candidates {
		hasNull[i] = t.HasNull()
	}
	locals, err := EachShard(space, prep, opts, func(worlds Worlds) ([]bool, error) {
		local := make([]bool, len(candidates))
		for i := range local {
			local[i] = true
		}
		remaining := len(candidates)
		// One probe buffer per shard: candidate instantiation reuses it
		// instead of allocating a tuple per candidate per world.
		buf := make(value.Tuple, len(candidates[0]))
		worlds(func(r plan.Runner, v value.Valuation) bool {
			a := r.Eval(v)
			for i, t := range candidates {
				if !local[i] {
					continue
				}
				// A null-free candidate is its own instance and is known
				// not to be frozen: only Δ can hold it.
				in := false
				if hasNull[i] {
					in = a.Contains(v.ApplyInto(buf, t))
				} else {
					in = a.DeltaContains(t)
				}
				if !in {
					local[i] = false
					remaining--
				}
			}
			return remaining > 0
		})
		return local, nil
	})
	if err != nil {
		return nil, err
	}
	alive := locals[0]
	for _, local := range locals[1:] {
		for i := range alive {
			alive[i] = alive[i] && local[i]
		}
	}
	return alive, nil
}

// Intersection computes cert∩(Q, D) = ⋂_{v} Q(v(D)) exactly. The result
// consists of constant tuples only (Section 3.2). With Q(v(D)) = Frozen ∪
// Δ(v) the intersection is Frozen ∪ ⋂_{v} Δ(v), so only the Δs are folded:
// each shard intersects its own index range — stopping once its fold is
// empty, which empties the whole fold — and the shard accumulators are then
// intersected in shard order, which reproduces the serial fold exactly.
func Intersection(db *relation.Database, q algebra.Expr, opts Options) (*relation.Relation, error) {
	prep := opts.prepared(db, q, false)
	space, err := querySpace(db, q, prep, opts)
	if err != nil {
		return nil, err
	}
	parts, err := EachShard(space, prep, opts, func(worlds Worlds) ([]value.Tuple, error) {
		var acc []value.Tuple
		first := true
		worlds(func(r plan.Runner, v value.Valuation) bool {
			a := r.Eval(v)
			if first {
				// The accumulator outlives the world: clone what it keeps.
				first = false
				for _, t := range a.Delta() {
					acc = append(acc, t.Clone())
				}
			} else {
				acc = keep(acc, a.DeltaContains)
			}
			return len(acc) > 0
		})
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	acc := parts[0]
	for _, part := range parts[1:] {
		var in value.TupleMap[struct{}]
		for _, t := range part {
			in.Put(t, struct{}{})
		}
		acc = keep(acc, in.Has)
	}
	out := relation.NewArity("cert∩", prep.Plan().Arity())
	prep.Frozen().EachUnordered(func(t value.Tuple, _ int) { out.Add(t) })
	for _, t := range acc {
		out.SetMult(t, 1)
	}
	return out, nil
}

// keep filters ts in place.
func keep(ts []value.Tuple, pred func(value.Tuple) bool) []value.Tuple {
	kept := ts[:0]
	for _, t := range ts {
		if pred(t) {
			kept = append(kept, t)
		}
	}
	return kept
}

// errRefuted is what a shard of forallWorlds returns on a counterexample:
// engine.Map stops at the first error, which cancels the other shards.
var errRefuted = errors.New("certain: counterexample")

// forallWorlds reports whether pred holds of the query's answer in every
// world of the space, stopping — across all workers — at the first
// counterexample.
func forallWorlds(space *Space, prep *plan.Prepared, opts Options, pred func(a plan.Answer, v value.Valuation) bool) (bool, error) {
	_, err := EachShard(space, prep, opts, func(worlds Worlds) (_ struct{}, refuted error) {
		worlds(func(r plan.Runner, v value.Valuation) bool {
			if !pred(r.Eval(v), v) {
				refuted = errRefuted
			}
			return refuted == nil
		})
		return struct{}{}, refuted
	})
	if errors.Is(err, errRefuted) {
		return false, nil
	}
	return err == nil, err
}

// existsWorld reports whether pred holds in some world of the space,
// stopping — across all workers — at the first witness.
func existsWorld(space *Space, prep *plan.Prepared, opts Options, pred func(a plan.Answer, v value.Valuation) bool) (bool, error) {
	holds, err := forallWorlds(space, prep, opts, func(a plan.Answer, v value.Valuation) bool { return !pred(a, v) })
	return !holds, err
}

// Bool computes certainty of a Boolean (zero-ary) query: true iff the
// query holds in every possible world of the space. A non-empty frozen
// answer settles it without enumeration and before the space is sized.
func Bool(db *relation.Database, q algebra.Expr, opts Options) (bool, error) {
	prep := opts.prepared(db, q, false)
	if prep.Frozen().Len() > 0 {
		return true, nil
	}
	space, err := querySpace(db, q, prep, opts)
	if err != nil {
		return false, err
	}
	return forallWorlds(space, prep, opts, func(a plan.Answer, _ value.Valuation) bool { return !a.Empty() })
}

// PossibleTuple reports whether some valuation makes t̄ an answer:
// ∃v. v(t̄) ∈ Q(v(D)).
func PossibleTuple(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (bool, error) {
	return tupleOracle(db, q, t, opts, existsWorld)
}

// CertainTuple reports whether t̄ ∈ cert⊥(Q, D) without computing the whole
// answer set.
func CertainTuple(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (bool, error) {
	return tupleOracle(db, q, t, opts, forallWorlds)
}

// tupleOracle decides the per-world membership test v(t̄) ∈ Q(v(D)) under
// the given quantifier. A null-free t̄ is invariant under every valuation:
// in the frozen answer it is an answer in every world, decided before the
// space is sized, and otherwise the common case probes with t̄ itself and
// allocates nothing per world.
func tupleOracle(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options,
	quantify func(*Space, *plan.Prepared, Options, func(plan.Answer, value.Valuation) bool) (bool, error)) (bool, error) {
	prep := opts.prepared(db, q, false)
	if !t.HasNull() && prep.Frozen().Contains(t) {
		return true, nil
	}
	space, err := spaceForTuple(db, q, t, prep.NullIDs(), prep, opts)
	if err != nil {
		return false, err
	}
	if !t.HasNull() {
		return quantify(space, prep, opts, func(a plan.Answer, _ value.Valuation) bool { return a.DeltaContains(t) })
	}
	return quantify(space, prep, opts, func(a plan.Answer, v value.Valuation) bool { return a.Contains(v.Apply(t)) })
}

// BoxMult computes □Q(D, ā) of (6a): the minimum multiplicity of v(ā) in
// the bag evaluation of Q over all valuations v.
func BoxMult(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (int, error) {
	return extremeMult(db, q, t, opts, true)
}

// DiamondMult computes ◇Q(D, ā) of (6b): the maximum multiplicity.
func DiamondMult(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (int, error) {
	return extremeMult(db, q, t, opts, false)
}

func extremeMult(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options, min bool) (int, error) {
	prep := opts.prepared(db, q, true)
	space, err := spaceForTuple(db, q, t, bagNulls(db, q), prep, opts)
	if err != nil {
		return 0, err
	}
	// Each shard's extremum; a shard always sees the first world of its
	// range, and a minimum of zero cannot improve, so it stops there.
	parts, err := EachShard(space, prep, opts, func(worlds Worlds) (int, error) {
		best, first := 0, true
		buf := make(value.Tuple, len(t))
		worlds(func(r plan.Runner, v value.Valuation) bool {
			m := r.Eval(v).Mult(v.ApplyInto(buf, t))
			if first || (min && m < best) || (!min && m > best) {
				best, first = m, false
			}
			return !(min && best == 0)
		})
		return best, nil
	})
	if err != nil {
		return 0, err
	}
	best := parts[0]
	for _, p := range parts[1:] {
		if (min && p < best) || (!min && p > best) {
			best = p
		}
	}
	return best, nil
}
