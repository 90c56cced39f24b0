package plan

import (
	"sort"
	"sync"
	"sync/atomic"

	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Prepared binds a plan to a base incomplete database D for execution over
// the worlds v(D), and keeps doing so while D gains rows. Everything rests on
// one shape: every operator's result is
//
//	frozen part  ∪  Δ
//
// where the frozen part is computed once, from the rows no source can
// change, and is shared by every execution and goroutine, and Δ is what one
// pass of the executor derives from a source of changed rows. There is one
// such pass and it has three sources (exec.go):
//
//   - a valuation v, for a world: a valuation can only change rows that
//     carry a null in a column the plan reads, so Prepare partitions every
//     scanned relation into its null-free rows, the frozen part, and those
//     null rows, templates the pass instantiates under v; the world v(D) is
//     frozen part ∪ Δ(v);
//   - the append log, for an advance: when D has only gained rows since the
//     guards were taken, the pass takes the appended rows instead, and every
//     frozen artifact becomes frozen part ∪ Δ⁺ in place (advance.go; catchUp
//     is the entry point and PrepCache.Get calls it); an appended row with a
//     null in a read column is one more template. A plan that reads the
//     active domain is never advanced: its guards pin the whole catalogue
//     and Dom distributes over nothing, so after any change it is prepared
//     afresh;
//   - the identity, for a one-shot (Plan.Exec): a plan executed once on D has
//     no second world to share a frozen part with, so its Prepared takes the
//     degenerate partition — every row is a Δ row, every frozen part is empty
//     (and known to be, so nothing is built for it) — and the one pass is a
//     plain single-pass execution.
//
// One rule says what an operator does with its inputs' Δ (distributes). Scan,
// filter, project, union, join, dedup, set intersection, and set difference
// and anti-unify by their left side distribute over ⊎ of their inputs: the
// same code turns the inputs' Δ into the node's own, whatever the source,
// and per-pass work is proportional to Δ. For a join,
//
//	(Fl ∪ Δl) ⋈ (Fr ∪ Δr) = Fl⋈Fr  ∪  Δl⋈Fr ∪ Fl⋈Δr ∪ Δl⋈Δr
//
// the first term is frozen and the other three are Δ, probing hash tables
// over Fr and Fl that are built once. An operator does not distribute over
// an input of which all of it decides every output row: the right side of
// difference and anti-unify, the IN subqueries of a filter, both sides of
// bag difference, bag intersection and division, the whole database under
// Dom. When such an input changes, no part of the node's output can be kept:
//
//   - per world the node is a barrier: its frozen part is empty, and each
//     world combines its inputs' (frozen, Δ) by probing — the inputs' frozen
//     parts consolidated once, their Δ collected per world — and re-emits its
//     whole output as Δ;
//   - per append it is re-derived, a barrier along time: its frozen part and
//     its ancestors' are dropped and derived again on next use from the
//     advanced inputs. There is no retraction; a Prepared that cannot be
//     advanced at all (catchUp says prepStale) is simply prepared afresh.
//
// Frozen parts and the tables over them are built lazily, on first use. A
// Prepared is safe for concurrent use: the lazy builds are synchronized and
// every execution's mutable state lives in its Runner. Catching up is the
// exception — it rewrites the shared state — and belongs to the moment
// after a mutation when nothing is executing yet (see PrepCache).
type Prepared struct {
	p    *Plan
	base *relation.Database
	// src is the source every exec over the Prepared is acquired with, which
	// classify and partition ask too. Under the identity the Prepared is
	// private to a single execution of base, and scans partition every row
	// into Δ.
	src source

	// main and subs hold the per-node prepared state of the main plan and
	// of every IN subplan (by Plan.subIdx): filled by Prepare, read-only
	// afterwards.
	main *planState
	subs []*planState
	// nullIDs are the sorted identifiers of the nulls a valuation must bind
	// for this plan: those in the partitions' null rows, or all of Null(D)
	// when the plan reads the active domain. Collected on first request (an
	// execution of the base itself never asks); an advance drops them.
	nullIDs lazy[[]uint64]
	// classes are the column classes of the plan's query, filled with the
	// base's rows (Classes); an advance drops them.
	classes lazy[algebra.Classes]

	// guards pin the relations the plan reads (object and mutation version as
	// of Prepare or the last advance); ValidFor re-checks them so a Prepared
	// can outlive a single oracle invocation (REPL/server workloads), and
	// catchUp asks them what was appended since. A plan reading the active
	// domain (Dom) depends on every relation of the base, so domAll pins the
	// whole catalogue, and any change to it makes the Prepared stale.
	guards relation.Pins
	domAll bool

	// mu serializes catching the prepared state up with the base (catchUp):
	// concurrent lookups of one cache entry after an append advance it once.
	mu sync.Mutex
	// absorbed counts the appended rows folded in by advances so far, for
	// EXPLAIN.
	absorbed int
}

// ValidFor reports whether the prepared state is still valid for db: db
// must present, for every relation the plan reads, the same relation object
// at the same mutation version as when Prepare ran. A plan reading Dom
// additionally requires the catalogue itself to be unchanged, since any new
// relation extends the active domain.
func (prep *Prepared) ValidFor(db *relation.Database) bool { return db.Holds(prep.guards) }

// Base returns the database the plan was prepared against.
func (prep *Prepared) Base() *relation.Database { return prep.base }

// Plan returns the physical plan the prepared state was computed for.
func (prep *Prepared) Plan() *Plan { return prep.p }

// NullIDs returns the sorted identifiers of the nulls whose binding can
// change the plan's result — the dimensions of the valuation space an exact
// oracle has to enumerate. The slice is shared: do not modify it.
func (prep *Prepared) NullIDs() []uint64 {
	return *prep.nullIDs.get(func() *[]uint64 {
		if prep.domAll {
			ids := prep.base.NullIDs()
			return &ids
		}
		seen := map[uint64]bool{}
		for _, ps := range append([]*planState{prep.main}, prep.subs...) {
			for i := range ps.nodes {
				if part := ps.nodes[i].scan; part != nil {
					for _, row := range part.nulls {
						for _, v := range row.t {
							if v.IsNull() {
								seen[v.NullID()] = true
							}
						}
					}
				}
			}
		}
		ids := make([]uint64, 0, len(seen))
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return &ids
	})
}

// Classes returns the column classes of q, the query the plan was compiled
// from, filled with the rows of the base: built on first use, and built
// again from the advanced base on the first use after an advance. They are
// shared and read-only.
func (prep *Prepared) Classes(q algebra.Expr) *algebra.Classes {
	return prep.classes.get(func() *algebra.Classes { return algebra.ColumnClasses(q, prep.base) })
}

// Frozen returns the frozen part of the plan's answer — the tuples that are
// answers in every world whatever the valuation — building it on first use.
// It is shared and strictly read-only; an oracle consults it before it
// enumerates anything.
func (prep *Prepared) Frozen() *relation.Relation {
	return prep.main.out.get(func() *relation.Relation {
		x := acquire(prep.p, prep, nil, true)
		defer x.release()
		return x.buildOut()
	})
}

// planState is one plan's prepared state: a slot per node, indexed by node
// id, plus the consolidated frozen part of the root under the plan's output
// name and attributes.
type planState struct {
	nodes []nodeState
	out   lazy[relation.Relation]
}

// nodeState is what Prepare decides about one node, and the frozen
// artifacts later built over it.
type nodeState struct {
	// varying: some valuation gives the node a non-empty Δ. A node that
	// does not vary is frozen across worlds and never runs per world.
	varying bool
	// barrier: the node varies and does not distribute over its inputs; its
	// frozen part is empty and each world re-emits its whole output as Δ.
	barrier bool
	// noFrozen: the node's frozen part is empty whatever the data — it is a
	// barrier, or it distributes over inputs that have no frozen rows — so
	// the frozen phase skips it and nothing is built to probe it.
	noFrozen bool
	// scan is a pscan's row partition.
	scan *scanPart

	// rel is the node's consolidated frozen part, for a parent that probes
	// it as a whole (barrier inputs, set-intersection, IN subquery roots).
	// tableR and tableL are a join's hash tables over the frozen parts of
	// its right and left input.
	rel            lazy[relation.Relation]
	tableR, tableL lazy[joinTable]

	// frozenRows is the size of the frozen part as last streamed (-1 until
	// then), for EXPLAIN; the advance also reads it to tell a node nothing
	// has been built from yet.
	frozenRows atomic.Int64
	// What the last advance decided (advance.go): grows — the appended rows
	// reached the node and it folds its Δ⁺; rederived — it could not, and
	// its frozen part was dropped to be re-derived on next use.
	// consolidate: a re-derive over an input the node does not distribute
	// over (right side, IN subquery) happened; from then on the frozen phase
	// walks the left input's consolidated frozen part — which advances fold
	// into — instead of streaming that subtree again, the way a barrier
	// re-decides its input per world.
	grows, rederived bool
	consolidate      bool
}

// scanPart is one scan's partition of its relation by row: nulls holds the
// rows with a null in a column the scan reads, already narrowed to those
// columns, as templates a valuation instantiates; every other row is
// frozen and streams straight from the relation. The identity's degenerate
// partition has no templates: every row streams as Δ.
type scanPart struct {
	rel   *relation.Relation
	nulls []nullRow
}

type nullRow struct {
	t value.Tuple
	m int
}

// lazy is a build-once slot. Loads are lock-free; builds are serialized per
// slot, so nested builds (a root freeze building the join tables under it)
// only ever take locks down the plan tree.
type lazy[T any] struct {
	p  atomic.Pointer[T]
	mu sync.Mutex
}

// get returns the slot's value, building it on first use.
func (l *lazy[T]) get(build func() *T) *T {
	if v := l.p.Load(); v != nil {
		return v
	}
	return l.fill(build)
}

func (l *lazy[T]) fill(build func() *T) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v := l.p.Load(); v != nil {
		return v
	}
	v := build()
	l.p.Store(v)
	return v
}

// empty reports whether nothing has been built yet.
func (l *lazy[T]) empty() bool { return l.p.Load() == nil }

// clear drops the value, to be rebuilt on next use. Only an advance calls
// it, when nothing else is using the Prepared.
func (l *lazy[T]) clear() { l.p.Store(nil) }

// tryPublish offers v, built as a by-product of other work, as the slot's
// value. It never waits: when the slot is filled, or someone is building it
// right now, v is dropped.
func (l *lazy[T]) tryPublish(v *T) {
	if !l.mu.TryLock() {
		return
	}
	if l.p.Load() == nil {
		l.p.Store(v)
	}
	l.mu.Unlock()
}

// Prepare partitions the relations p scans by row against base and
// classifies every node as frozen, distributing or barrier. No frozen part
// is computed yet.
func (p *Plan) Prepare(base *relation.Database) *Prepared {
	prep := p.prepare(base, source{})
	prep.pin()
	return prep
}

// pin records the guards: the relations the plan reads as the base presents
// them now — all of them when the plan reads the active domain.
func (prep *Prepared) pin() {
	if prep.domAll {
		prep.guards = prep.base.PinAll()
	} else {
		prep.guards = prep.base.Pin(prep.p.root.base().reads.names)
	}
}

// prepare is Prepare without the version guards, which only a Prepared that
// outlives the call needs, for the source src: the identity asks for the
// degenerate partition of a single execution.
func (p *Plan) prepare(base *relation.Database, src source) *Prepared {
	prep := &Prepared{p: p, base: base, src: src, subs: make([]*planState, len(p.subs)), domAll: p.root.base().reads.dom}
	for _, sub := range p.subs {
		prep.subState(sub)
	}
	prep.main = prep.classify(p)
	return prep
}

// stateOf returns the prepared state of q, the main plan or a subplan.
func (prep *Prepared) stateOf(q *Plan) *planState {
	if q == prep.p {
		return prep.main
	}
	return prep.subs[q.subIdx]
}

// subState returns the prepared state of an IN subplan, classifying it on
// first request: textually identical subqueries share one subplan, so a
// nested IN may name a subplan of any index, and an enclosing filter asks
// for it before Prepare's own loop has reached it.
func (prep *Prepared) subState(sub *Plan) *planState {
	if prep.subs[sub.subIdx] == nil {
		prep.subs[sub.subIdx] = prep.classify(sub)
	}
	return prep.subs[sub.subIdx]
}

// classify walks q bottom-up: which nodes vary with the world, which of
// those are barriers, and the row partition of every scan.
func (prep *Prepared) classify(q *Plan) *planState {
	ps := &planState{nodes: make([]nodeState, len(q.nodes))}
	noFrozen := func(n pnode) bool { return ps.nodes[n.base().id].noFrozen }
	// Children are registered before their parents, so node order is
	// bottom-up; nodes compilation left unreachable classify harmlessly.
	for _, n := range q.nodes {
		st := &ps.nodes[n.base().id]
		st.frozenRows.Store(-1)
		// A node varies with its inputs, and is a barrier when one it does
		// not distribute over varies.
		prep.eachInput(ps, n, func(in pnode, is *nodeState) {
			st.varying = st.varying || is.varying
			st.barrier = st.barrier || is.varying && !distributes(n, in, q.bag)
		})
		l, r := inputs(n)
		switch n := n.(type) {
		case *pscan:
			st.scan = prep.partition(n)
			st.varying = prep.src.identity || len(st.scan.nulls) > 0
			st.noFrozen = prep.src.identity
		case *pdom:
			// The active domain is an input Dom does not distribute over.
			st.varying = prep.src.identity || (n.k > 0 && !prep.base.IsComplete())
			st.barrier = st.varying
		case *pjoin, *pinter:
			st.noFrozen = noFrozen(l) || noFrozen(r)
		case *punion:
			st.noFrozen = noFrozen(l) && noFrozen(r)
		default:
			// No output row without a left row (filter, project, distinct,
			// difference, anti-unify, division).
			st.noFrozen = noFrozen(l)
		}
		st.noFrozen = st.noFrozen || st.barrier
	}
	return ps
}

// distributes reports whether n distributes over ⊎ of its input in — one of
// inputs(n), or the root of an IN subplan one of a filter's conditions
// probes: whether, when in gains the rows Δ, n gains exactly what its Δ rule
// derives from Δ and the other inputs' frozen parts. It does not when the
// whole of in decides each output row. classify makes a node a barrier when
// such an input varies with the world; an advance re-derives a node when
// such an input gained rows. Dom, which reads the whole database, distributes
// over nothing.
func distributes(n, in pnode, bag bool) bool {
	switch n := n.(type) {
	case *pfilter:
		return in == n.in
	case *pdiff:
		return in == n.l && !bag
	case *pantiunify:
		return in == n.l
	case *pinter:
		return !bag
	case *pdivide, *pdom:
		return false
	}
	return true
}

// eachInput calls f on every input of n with its prepared state: its
// operator inputs, and for a filter the root of every IN subplan its
// conditions probe.
func (prep *Prepared) eachInput(ps *planState, n pnode, f func(in pnode, st *nodeState)) {
	l, r := inputs(n)
	for _, c := range [2]pnode{l, r} {
		if c != nil {
			f(c, &ps.nodes[c.base().id])
		}
	}
	if fl, ok := n.(*pfilter); ok {
		for _, c := range fl.conds {
			eachSub(c, func(sub *Plan) { f(sub.root, &prep.subState(sub).nodes[sub.root.base().id]) })
		}
	}
}

// partition splits the scanned relation by row. A relation without nulls
// (the cached HasNulls) is frozen whole without a pass over it, and the
// identity makes no templates; a pruned scan's templates are carved from
// one slab.
func (prep *Prepared) partition(n *pscan) *scanPart {
	part := &scanPart{rel: prep.base.Relation(n.name)}
	if prep.src.identity || part.rel == nil || !part.rel.HasNulls() {
		return part
	}
	var slab []value.Value
	part.rel.EachUnordered(func(t value.Tuple, m int) {
		if !nullIn(t, n.cols) {
			return
		}
		if n.cols != nil {
			for _, c := range n.cols {
				slab = append(slab, t[c])
			}
			t = nil // cut from the slab once it has stopped growing
		}
		part.nulls = append(part.nulls, nullRow{t: t, m: m})
	})
	if w := len(n.cols); n.cols != nil {
		for i := range part.nulls {
			part.nulls[i].t = value.Tuple(slab[i*w : (i+1)*w : (i+1)*w])
		}
	}
	return part
}

// nullIn reports whether t has a null in one of cols (nil: any column).
func nullIn(t value.Tuple, cols []int) bool {
	if cols == nil {
		return t.HasNull()
	}
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

// Runner is one goroutine's execution state over a Prepared: the batch
// buffers, arena slabs and Δ sets every world it evaluates reuses. An
// oracle worker shard takes one Runner for its whole index range, so a
// world allocates nothing once the buffers are warm. Close returns the
// state to the plan's pool; the Runner and every Answer it produced are
// invalid afterwards.
type Runner struct{ x *exec }

// Runner acquires execution state for prep. tr, when non-nil, accumulates
// execution statistics (it may be shared by concurrent Runners: all Trace
// fields are atomics).
func (prep *Prepared) Runner(tr *Trace) Runner {
	return Runner{acquire(prep.p, prep, tr, true)}
}

// Close releases the Runner's state for reuse.
func (r Runner) Close() { r.x.release() }

// Eval evaluates the plan in the world v(D) — v nil or empty evaluates D
// itself, nulls standing for themselves — and returns the answer in
// (frozen, Δ) form, valid until the Runner's next Eval or Close.
func (r Runner) Eval(v value.Valuation) Answer {
	x := r.x
	if len(v) == 0 {
		v = nil
	}
	x.begin(v)
	var frozen *relation.Relation
	if x.tstats != nil {
		// EXPLAIN ANALYZE measures a whole execution: re-stream the frozen
		// part under the tracer instead of serving the cached one.
		frozen = x.buildOut()
	} else {
		frozen = x.ps.out.get(x.buildOut)
		x.frozenHit()
	}
	stream(x.plan.root, x, x.collect)
	return Answer{Frozen: frozen, delta: &x.root, bag: x.bag}
}

// Answer is a plan's result in one world, in (frozen, Δ) form: the answer
// is Frozen ∪ Δ. Frozen is the world-invariant part, consolidated (distinct
// tuples, multiplicity one under set semantics, summed under bag
// semantics), shared by every world and goroutine and strictly read-only;
// its tuples are null-free. Δ is this world's part and may repeat tuples of
// Frozen.
type Answer struct {
	Frozen *relation.Relation
	delta  *deltaSet
	bag    bool
}

// Contains reports whether t is in the answer.
func (a Answer) Contains(t value.Tuple) bool {
	return a.Frozen.Contains(t) || a.delta.contains(t)
}

// DeltaContains reports whether t is in this world's Δ. For a tuple known
// not to be in Frozen it decides membership without hashing the tuple when
// Δ is small.
func (a Answer) DeltaContains(t value.Tuple) bool { return a.delta.contains(t) }

// Mult returns t's multiplicity in the answer (bag semantics).
func (a Answer) Mult(t value.Tuple) int {
	return a.Frozen.Mult(t) + a.delta.mult(t)
}

// Empty reports whether the answer has no tuples.
func (a Answer) Empty() bool { return a.Frozen.Len() == 0 && a.delta.len() == 0 }

// Delta returns this world's distinct Δ tuples. The slice and the tuples
// are only valid until the Runner's next Eval: clone what must be kept.
func (a Answer) Delta() []value.Tuple { return a.delta.rows }

// Exec evaluates the plan on db, which must be the database it was prepared
// against (or present the same relations: ValidFor), and returns a result
// relation the caller owns (normalized under set semantics, exact
// multiplicities under bag semantics). Worlds of db are evaluated through a
// Runner instead.
func (prep *Prepared) Exec(db *relation.Database) *relation.Relation {
	return prep.ExecTraced(db, nil)
}

// ExecTraced is Exec accumulating execution statistics into tr.
func (prep *Prepared) ExecTraced(db *relation.Database, tr *Trace) *relation.Relation {
	return prep.Result(db, tr).Relation()
}

// Result is ExecTraced without materializing the answer: the frozen part
// stays shared and only Δ is copied. The Result is valid until db changes.
func (prep *Prepared) Result(db *relation.Database, tr *Trace) Result {
	if db != prep.base && !prep.ValidFor(db) {
		panic("plan: Prepared executed on a database it was not prepared against")
	}
	r := prep.Runner(tr)
	defer r.Close()
	return r.Eval(nil).Result()
}
