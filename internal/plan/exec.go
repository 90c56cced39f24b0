package plan

import (
	"slices"

	"incdb/internal/algebra"
	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// exec carries one execution's state over a Prepared. There is one executor
// and it makes one kind of pass, the Δ pass (delta true): every node streams
// what the exec's source adds to its frozen part — a world's Δ(v), the
// identity's every row, an advance's Δ⁺ (the contract is in prepare.go).
// Its frozen phase (delta false) streams the frozen part itself, computed
// from the rows no source changes, once per Prepared per artifact that needs
// it (the root's frozen answer, a join's hash tables, a barrier's
// consolidated inputs), on an exec of its own. Execs of Δ passes over worlds
// are pooled per plan, their buffers rewound between worlds. The operators
// below are written once for both phases and every source: only scan (which
// rows) and join (which cross terms) ask which phase they are in.
type exec struct {
	prep *Prepared
	ps   *planState // prep.stateOf(plan)
	plan *Plan      // plan this exec runs (main plan or an IN subplan)
	mode algebra.Mode
	bag  bool
	bufs []outBuf

	delta bool
	src   source
	// grown, in an advance, keeps each node's Δ⁺ (nil until it streamed)
	// for the fold (advance.go).
	grown []*vbatch

	// trace, when set, receives execution statistics (trace.go); tstats is
	// the per-node slot slice for plan, non-nil only under detail tracing.
	trace  *Trace
	tstats []*NodeStat

	// root collects the plan's Δ for the current world; collect is its
	// batch sink, allocated once per exec.
	root    deltaSet
	collect func(*vbatch)

	// top is the main plan's exec; it owns the world counter and the execs
	// of the IN subplans, so that each subquery's Δ is computed once per
	// world however many conditions and nesting levels probe it.
	top   *exec
	subs  []*exec // by Plan.subIdx; top only
	epoch uint64  // top: current world; subplan exec: world root was collected for
}

// source is where a Δ pass's scan rows come from. It is fixed when an exec
// is acquired — from the Prepared's: the identity for a one-shot's, the
// valuation otherwise, each world binding its val; an advance sets the
// append log — and an exec that builds a frozen part on the way inherits it.
//
//   - valuation: the null templates of the partition instantiated under val
//     (nil: the nulls stand for themselves);
//   - identity: every row of the relation;
//   - append log: the rows appended since the guards (added). The frozen
//     part they are a Δ⁺ of is the relation without them, and that is what
//     a frozen part first built during the advance streams.
type source struct {
	identity bool
	val      value.Valuation
	added    map[string][]relation.Appended
}

func newExec(p *Plan) *exec {
	x := &exec{plan: p, mode: p.mode, bag: p.bag, bufs: make([]outBuf, len(p.nodes)), subs: make([]*exec, len(p.subs))}
	x.top = x
	x.collect = func(b *vbatch) {
		for i, t := range b.rows {
			x.root.add(t, b.mults[i])
		}
	}
	return x
}

// bind attaches the exec to a Prepared and a trace.
func (x *exec) bind(prep *Prepared, tr *Trace) {
	x.prep, x.ps, x.trace, x.tstats = prep, prep.stateOf(x.plan), tr, nil
	if tr != nil && tr.detail {
		x.tstats = tr.planStats(x.plan)
	}
}

// resetBufs rewinds the buffers for the next world.
func (x *exec) resetBufs() {
	for i := range x.bufs {
		x.bufs[i].reset()
	}
	x.root.reset()
}

// acquire takes an exec for q from its pool (or makes one) and binds it.
func acquire(q *Plan, prep *Prepared, tr *Trace, delta bool) *exec {
	x, _ := q.pool.Get().(*exec)
	if x == nil {
		x = newExec(q)
	}
	x.bind(prep, tr)
	x.delta, x.src = delta, prep.src
	return x
}

// release returns the exec to its plan's pool, dropping the references a
// pooled exec must not keep alive; the batch containers stay warm.
func (x *exec) release() {
	x.resetBufs()
	x.unbind()
	for _, sx := range x.subs {
		if sx != nil {
			sx.unbind()
		}
	}
	x.plan.pool.Put(x)
}

func (x *exec) unbind() {
	x.prep, x.ps, x.trace, x.tstats, x.src, x.grown = nil, nil, nil, nil, source{}, nil
}

// frozen runs build on a frozen-phase exec for q that inherits the source.
func (x *exec) frozen(q *Plan, build func(fx *exec)) {
	fx := acquire(q, x.prep, x.trace, false)
	defer fx.release()
	fx.src = x.src
	build(fx)
}

// handOver gives the arena's slabs up to an artifact that keeps rows carved
// from them (a join table): rows are carved from fresh slabs from then on,
// and a reset rewinds nothing the artifact holds.
func (x *exec) handOver() {
	for i := range x.bufs {
		x.bufs[i].slab = nil
	}
}

func (x *exec) st(n pnode) *nodeState { return &x.ps.nodes[n.base().id] }

// varies reports whether a node with prepared state st has a Δ in this
// pass: some valuation changes it (in a one-shot, every node does), or the
// appended rows reach it and it folds them. The frozen phase has none.
func (x *exec) varies(st *nodeState) bool {
	switch {
	case !x.delta:
		return false
	case x.src.added != nil:
		return st.grows
	}
	return st.varying
}

// Exec evaluates the plan against db and returns the result relation
// (normalized under set semantics, exact multiplicities under bag
// semantics). Safe for concurrent use: the plan is immutable and all
// execution state lives in the exec.
func (p *Plan) Exec(db *relation.Database) *relation.Relation {
	return p.ExecTraced(db, nil)
}

// ExecTraced is Exec accumulating execution statistics into tr (which may
// be shared across concurrent executions — all Trace fields are atomics).
func (p *Plan) ExecTraced(db *relation.Database, tr *Trace) *relation.Relation {
	// One world, nothing to share: the identity makes every row a Δ row, and
	// the single Δ pass goes straight into the result.
	x := acquire(p, p.prepare(db, source{identity: true}), tr, true)
	defer x.release()
	x.begin(nil)
	out := x.newOut()
	stream(p.root, x, relSink(out))
	if !p.bag {
		out.Normalize()
	}
	return out
}

// begin starts the evaluation of the world val(D) on a Δ-pass exec.
func (x *exec) begin(val value.Valuation) {
	if x.trace != nil {
		x.trace.Execs.Add(1)
	}
	x.src.val = val
	x.epoch++
	x.resetBufs()
}

// newOut returns an empty relation under the output name and attributes the
// reference interpreter would produce.
func (x *exec) newOut() *relation.Relation {
	p := x.plan
	if p.outIsRel {
		if src := x.prep.base.Relation(p.outName); src != nil {
			return relation.New(p.outName, src.Attrs()...)
		}
	}
	return relation.NewArity(p.outName, p.arity)
}

// buildOut computes the frozen part of the plan's answer. It runs on x
// itself, flipped to the frozen phase: x is between worlds, its buffers are
// idle, and the relation clones what it keeps.
func (x *exec) buildOut() *relation.Relation {
	out := x.newOut()
	x.delta = false
	stream(x.plan.root, x, relSink(out))
	x.delta = true
	x.resetBufs()
	if !x.plan.bag {
		out.Normalize()
	}
	return out
}

// stream is the dispatcher every operator goes through. In the frozen phase
// a node without a frozen part (a barrier, or one above inputs without
// frozen rows) has nothing to say, and every other node's frozen row count
// is recorded for EXPLAIN; in a Δ pass a node the source does not reach has
// nothing to say, and an advance keeps what every other node says.
func stream(n pnode, x *exec, emit func(*vbatch)) {
	st := x.st(n)
	if !x.delta {
		if st.noFrozen {
			st.frozenRows.Store(0)
			return
		}
		o := x.out(n)
		o.emitted = 0
		if x.tstats != nil {
			x.traced(n, emit)
		} else {
			n.run(x, emit)
		}
		if u, ok := n.(*punion); ok {
			// A union forwards its children's batches without buffering them.
			o.emitted = int(x.st(u.l).frozenRows.Load() + x.st(u.r).frozenRows.Load())
		}
		st.frozenRows.Store(int64(o.emitted))
		return
	}
	if !x.varies(st) {
		return
	}
	if x.grown != nil {
		emit = x.grow(n, emit)
	}
	if x.tstats != nil {
		x.traced(n, emit)
		return
	}
	n.run(x, emit)
}

// consolidates reports whether n's frozen part is being re-derived from its
// left input's consolidated frozen part (nodeState.consolidate).
func (x *exec) consolidates(n pnode) bool { return !x.delta && x.st(n).consolidate }

// frozenHit records one reuse of a frozen artifact by a Δ pass on the
// attached trace.
func (x *exec) frozenHit() {
	if x.trace != nil && x.delta {
		x.trace.FrozenReuse.Add(1)
	}
}

// frozenRel returns the consolidated frozen part of node n of plan q
// (exact multiplicities), building it on first use — nil for a node that
// has none (noFrozen).
func (x *exec) frozenRel(q *Plan, n pnode) *relation.Relation {
	st := &x.prep.stateOf(q).nodes[n.base().id]
	if st.noFrozen {
		return nil
	}
	x.frozenHit()
	build := func() *relation.Relation {
		out := relation.NewArity("t", n.base().width)
		x.frozen(q, func(fx *exec) { stream(n, fx, relSink(out)) })
		return out
	}
	// A full-width scan of a relation without null rows is the relation
	// itself: stored rows are immutable and every consumer is read-only. The
	// shortcut is skipped under detail tracing, so the scan's actual rows are
	// counted, and while the source appends to the relation, which then holds
	// the appended rows already: the frozen part is streamed without them
	// and not kept.
	s, ok := n.(*pscan)
	if !ok || s.cols != nil || st.scan.rel == nil || len(st.scan.nulls) > 0 || x.tstats != nil {
		return st.rel.get(build)
	}
	if len(x.src.added[s.name]) > 0 {
		return build()
	}
	return st.rel.get(func() *relation.Relation { return st.scan.rel })
}

// side returns input n of the executing plan in (frozen, Δ) form, Δ
// collected into slot.
func (x *exec) side(n pnode, slot *deltaSet) side {
	s := side{f: x.frozenRel(x.plan, n)}
	if x.varies(x.st(n)) {
		slot.reset()
		stream(n, x, func(b *vbatch) {
			for i, t := range b.rows {
				slot.add(t, b.mults[i])
			}
		})
		s.d = slot
	}
	return s
}

// subSide returns the (set-semantics) result of an IN subplan in
// (frozen, Δ) form; its Δ is computed once per world.
func (x *exec) subSide(sub *Plan) side {
	s := side{f: x.frozenRel(sub, sub.root)}
	top := x.top
	if !x.varies(&top.prep.stateOf(sub).nodes[sub.root.base().id]) {
		return s
	}
	sx := top.subs[sub.subIdx]
	if sx == nil {
		sx = newExec(sub)
		sx.top = top
		sx.delta = true
		top.subs[sub.subIdx] = sx
	}
	if sx.prep != top.prep || sx.epoch != top.epoch {
		sx.bind(top.prep, top.trace)
		sx.src, sx.epoch = top.src, top.epoch
		sx.resetBufs()
		stream(sub.root, sx, sx.collect)
	}
	s.d = &sx.root
	return s
}

func (x *exec) multOf(m int) int {
	if x.bag {
		return m
	}
	return 1
}

// Operator implementations. Multiplicity discipline: under bag semantics
// every emission carries exact bag arithmetic; under set semantics
// emissions may repeat tuples (set-insensitive consumers only probe
// membership) and consolidation points normalize. Every operator flows
// batches (batch.go): rows accumulate in the node's output buffer and flush
// to the consumer at BatchRows.

func (n *pscan) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	part := x.st(n).scan
	switch {
	case !x.delta || x.src.identity:
		// Rows straight from the relation: the frozen part — or, for the
		// identity, every row as its Δ.
		if part.rel == nil {
			panic("plan: unknown relation " + n.name)
		}
		mixed := len(part.nulls) > 0
		// Mid-advance, the frozen part is the one at the guards: without what
		// the appended rows added.
		var added value.TupleMap[int]
		for _, a := range x.src.added[n.name] {
			m, _ := added.Get(a.T)
			added.Put(a.T, m+a.M)
		}
		w := len(n.cols)
		part.rel.EachUnordered(func(t value.Tuple, m int) {
			if mixed && nullIn(t, n.cols) {
				return
			}
			if added.Len() > 0 {
				if a, _ := added.Get(t); a > 0 {
					if m -= a; m <= 0 {
						return
					}
				}
			}
			if n.cols != nil {
				// Pruned scan: emit narrowed tuples carved from the slab.
				t = n.narrow(o.alloc(w), t)
			}
			o.push(t, x.multOf(m), emit)
		})
	case x.src.added != nil:
		// Δ⁺: the appended rows. One with a null in a read column is one more
		// template (the advance hands its arena over, so it can live there);
		// the others join the frozen part.
		for _, a := range x.src.added[n.name] {
			if !a.Fresh && !x.bag {
				continue
			}
			t := a.T
			if n.cols != nil {
				t = n.narrow(o.alloc(len(n.cols)), t)
			}
			if nullIn(a.T, n.cols) {
				part.nulls = append(part.nulls, nullRow{t: t, m: a.M})
			} else {
				o.push(t, x.multOf(a.M), emit)
			}
		}
	default:
		// Δ(v): the null rows, instantiated into the arena slab.
		for i := range part.nulls {
			t := part.nulls[i].t
			if x.src.val != nil {
				t = x.src.val.ApplyInto(o.alloc(len(t)), t)
			}
			o.push(t, x.multOf(part.nulls[i].m), emit)
		}
	}
	o.flush(emit)
}

// narrow copies the scan's columns of t into nt.
func (n *pscan) narrow(nt, t value.Tuple) value.Tuple {
	for i, c := range n.cols {
		nt[i] = t[c]
	}
	return nt
}

func (n *pfilter) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	if x.st(n).barrier || x.consolidates(n) {
		// An IN subquery varies: every input row is re-decided per world — or
		// it grew, and every frozen one is re-decided now.
		x.side(n.in, &o.ld).each(func(t value.Tuple, m int) {
			if n.holds(x, t) {
				o.push(t, x.multOf(m), emit)
			}
		})
	} else {
		stream(n.in, x, func(b *vbatch) {
			for i, t := range b.rows {
				if n.holds(x, t) {
					o.push(t, b.mults[i], emit)
				}
			}
		})
	}
	o.flush(emit)
}

func (n *pfilter) holds(x *exec, t value.Tuple) bool {
	for _, c := range n.conds {
		if c.eval(x, t) != logic.T {
			return false
		}
	}
	return true
}

func (n *pproject) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	w := len(n.cols)
	stream(n.in, x, func(b *vbatch) {
		for i, t := range b.rows {
			nt := o.alloc(w)
			for j, c := range n.cols {
				nt[j] = t[c]
			}
			o.push(nt, b.mults[i], emit)
		}
	})
	o.flush(emit)
}

func (n *pjoin) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	st := x.st(n)
	sqlMode := x.mode == algebra.ModeSQL
	if !x.delta {
		// Frozen part: Fl ⋈ Fr. When the right input varies, Δr will probe a
		// table over Fl: Fl is streaming past right now, so the first pass
		// fills that table instead of leaving it to a second run of the left
		// subtree.
		fr := x.table(&st.tableR, n.right, n.rkeys)
		var fl *joinTable
		if x.st(n.right).varying && st.tableL.empty() {
			fl = &joinTable{}
			fl.reset(n.lkeys, int(n.left.base().est))
		}
		stream(n.left, x, func(b *vbatch) {
			for i, lt := range b.rows {
				n.probe(x, o, fr, lt, b.mults[i], false, sqlMode, emit)
				if fl != nil {
					fl.add(lt, b.mults[i], sqlMode)
				}
			}
		})
		if fl != nil {
			st.tableL.tryPublish(fl)
			x.handOver()
		}
		o.flush(emit)
		return
	}
	// Δ = Fl⋈Δr ∪ Δl⋈Fr ∪ Δl⋈Δr, whatever the source: the tables over Fl and
	// Fr hold the frozen part the pass is relative to. Δr is collected into
	// the node's small reusable table first, so that Δl probes both
	// right-hand terms in one pass; the tables over Fl and Fr are only
	// touched by a non-empty Δ.
	dr := &o.dtable
	dr.reset(n.rkeys, 0)
	stream(n.right, x, func(b *vbatch) {
		for i, t := range b.rows {
			dr.add(t, b.mults[i], sqlMode)
		}
	})
	if len(dr.rows) > 0 {
		if fl := x.table(&st.tableL, n.left, n.lkeys); fl != nil {
			for i := range dr.rows {
				n.probe(x, o, fl, dr.rows[i].t, dr.rows[i].m, true, sqlMode, emit)
			}
		}
	}
	if x.varies(x.st(n.left)) {
		fr := x.table(&st.tableR, n.right, n.rkeys)
		stream(n.left, x, func(b *vbatch) {
			for i, lt := range b.rows {
				if fr != nil {
					n.probe(x, o, fr, lt, b.mults[i], false, sqlMode, emit)
				}
				n.probe(x, o, dr, lt, b.mults[i], false, sqlMode, emit)
			}
		})
	}
	o.flush(emit)
}

// table returns one of a join's hash tables — over the frozen part of its
// right input keyed on the right key columns (what Fl and Δl probe), or its
// mirror image over the left input (what Δr probes) — building it on first
// use; nil when the input has no frozen part. The table keeps rows of the
// arena it was streamed through.
func (x *exec) table(slot *lazy[joinTable], in pnode, keys []int) *joinTable {
	if x.st(in).noFrozen {
		return nil
	}
	x.frozenHit()
	return slot.get(func() *joinTable {
		tb := &joinTable{}
		tb.reset(keys, int(in.base().est))
		sqlMode := x.mode == algebra.ModeSQL
		x.frozen(x.plan, func(fx *exec) {
			stream(in, fx, func(b *vbatch) {
				for i, t := range b.rows {
					tb.add(t, b.mults[i], sqlMode)
				}
			})
			fx.handOver()
		})
		return tb
	})
}

// probe joins one streamed row pt against tb and emits the matches. The
// streamed row is a left row probing a table of right rows, or — swapped —
// a right row probing the table over Fl.
func (n *pjoin) probe(x *exec, o *outBuf, tb *joinTable, pt value.Tuple, pm int, swapped, sqlMode bool, emit func(*vbatch)) {
	pkeys := n.lkeys
	if swapped {
		pkeys = n.rkeys
	}
	if sqlMode {
		for _, k := range pkeys {
			if pt[k].IsNull() {
				return // the key equality can never be t
			}
		}
	}
	tb.probe(pt, pkeys, func(st value.Tuple, sm int) {
		if swapped {
			n.emit(x, o, st, pt, pm*sm, emit)
		} else {
			n.emit(x, o, pt, st, pm*sm, emit)
		}
	})
}

// emit pushes the concatenation lt·rt (or its folded projection) when the
// residual conditions hold.
func (n *pjoin) emit(x *exec, o *outBuf, lt, rt value.Tuple, m int, emit func(*vbatch)) {
	lw := len(lt)
	full := lw + len(rt)
	if n.outCols == nil {
		joined := o.alloc(full)
		copy(joined, lt)
		copy(joined[lw:], rt)
		for _, c := range n.residual {
			if c.eval(x, joined) != logic.T {
				o.unalloc(full) // never emitted: reclaim the row
				return
			}
		}
		o.push(joined, m, emit)
		return
	}
	// Folded projection: the residual (if any) still sees the full
	// concatenation via the reusable scratch tuple; emitted rows carry
	// only the projected columns.
	if n.residual != nil {
		if cap(o.scratch) < full {
			o.scratch = make(value.Tuple, full)
		}
		s := o.scratch[:full]
		copy(s, lt)
		copy(s[lw:], rt)
		for _, c := range n.residual {
			if c.eval(x, s) != logic.T {
				return
			}
		}
	}
	outT := o.alloc(len(n.outCols))
	for j, cc := range n.outCols {
		if cc < lw {
			outT[j] = lt[cc]
		} else {
			outT[j] = rt[cc-lw]
		}
	}
	o.push(outT, m, emit)
}

func (n *punion) run(x *exec, emit func(*vbatch)) {
	// Child batches forward zero-copy: a union adds no per-row work.
	stream(n.l, x, emit)
	stream(n.r, x, emit)
}

// eachLeft feeds a whole-tuple operator its left input. An operator that
// needs distinct tuples with exact multiplicities (exact), or whose frozen
// part is re-derived from the consolidated one (consolidates), takes the
// input whole in (frozen, Δ) form. Otherwise it decides row by row, so the
// current phase's part streams through — and a barrier, which re-emits per
// world what its frozen left rows yield too, walks those first.
func (x *exec) eachLeft(n, l pnode, exact bool, f func(t value.Tuple, m int)) {
	if exact || x.consolidates(n) {
		x.side(l, &x.out(n).ld).each(f)
		return
	}
	if x.st(n).barrier {
		if fl := x.frozenRel(x.plan, l); fl != nil {
			fl.EachUnordered(f)
		}
	}
	stream(l, x, func(b *vbatch) {
		for i, t := range b.rows {
			f(t, b.mults[i])
		}
	})
}

func (n *pdiff) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	r := x.side(n.r, &o.rd)
	x.eachLeft(n, n.l, x.bag, func(t value.Tuple, m int) {
		if x.bag {
			if rest := m - r.mult(t); rest > 0 {
				o.push(t, rest, emit)
			}
		} else if !r.contains(t) {
			o.push(t, 1, emit)
		}
	})
	o.flush(emit)
}

func (n *pinter) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	r := x.side(n.r, &o.rd)
	x.eachLeft(n, n.l, x.bag, func(t value.Tuple, m int) {
		rm := r.mult(t)
		if rm == 0 {
			return
		}
		if !x.bag {
			m = 1
		} else if rm < m {
			m = rm
		}
		o.push(t, m, emit)
	})
	if !x.bag && r.d != nil && r.d.len() > 0 {
		// Set intersection distributes; the pass above emitted Δl ∩ (Fr ∪ Δr),
		// the remaining Δ term is Fl ∩ Δr.
		if fl := x.frozenRel(x.plan, n.l); fl != nil {
			for _, t := range r.d.rows {
				if fl.Contains(t) {
					o.push(t, 1, emit)
				}
			}
		}
	}
	o.flush(emit)
}

func (n *pdivide) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	l, r := x.side(n.l, &o.ld), x.side(n.r, &o.rd)
	w := n.base().width
	var cands value.TupleMap[struct{}]
	l.each(func(t value.Tuple, _ int) {
		if a := t[:w]; !cands.Has(a) {
			cands.Put(a.Clone(), struct{}{})
		}
	})
	// ∀ over an empty set: every deduplicated projection of L qualifies
	// (division divides the underlying sets).
	cands.Each(func(a value.Tuple, _ struct{}) {
		ok := true
		r.each(func(b value.Tuple, _ int) {
			if ok && !l.contains(a.Concat(b)) {
				ok = false
			}
		})
		if ok {
			o.push(a, 1, emit)
		}
	})
	o.flush(emit)
}

func (n *pantiunify) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	r := x.side(n.r, &o.rd)
	x.eachLeft(n, n.l, false, func(t value.Tuple, m int) {
		blocked := false
		unifies := func(s value.Tuple) bool {
			blocked = value.Unifiable(t, s)
			return !blocked
		}
		if t.HasNull() {
			// Rare path: scan everything.
			r.eachNullFree(unifies)
		} else {
			blocked = r.contains(t)
		}
		if !blocked {
			r.eachWithNulls(unifies)
		}
		if !blocked {
			o.push(t, x.multOf(m), emit)
		}
	})
	o.flush(emit)
}

func (n *pdistinct) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	seen := &o.ld
	seen.reset()
	// An advance folds the Δ⁺ of a dedup into its frozen part, so it is what
	// that part does not hold yet. A world's Δ may repeat frozen tuples
	// (Answer), which is cheaper than probing the frozen part per Δ row.
	var had *relation.Relation
	if x.src.added != nil {
		had = x.st(n).rel.p.Load()
	}
	stream(n.in, x, func(b *vbatch) {
		for _, t := range b.rows {
			if seen.contains(t) || (had != nil && had.Contains(t)) {
				continue
			}
			seen.add(t, 1)
			o.push(t, 1, emit)
		}
	})
	o.flush(emit)
}

func (n *pdom) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	if n.k == 0 {
		o.push(value.Tuple{}, 1, emit)
		o.flush(emit)
		return
	}
	// dom(v(D)) = Const(D) ∪ v(Null(D)): a valuation replaces nulls and
	// leaves every constant in place. Both are cached (Database.Consts,
	// Prepared.NullIDs); Consts is capped, so appending copies it.
	adom := x.prep.base.Consts()
	for _, id := range x.prep.NullIDs() {
		if c := x.src.val.ApplyValue(value.Null(id)); !slices.Contains(adom, c) {
			adom = append(adom, c)
		}
	}
	tuple := make(value.Tuple, n.k)
	var rec func(i int)
	rec = func(i int) {
		if i == n.k {
			nt := o.alloc(n.k)
			copy(nt, tuple)
			o.push(nt, 1, emit)
			return
		}
		for _, v := range adom {
			tuple[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	o.flush(emit)
}
