package plan

import (
	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// The advance of a Prepared across appended rows: the append-log source of
// the contract in prepare.go. It is a driver over exec.go, not a walk of its
// own: it decides node by node whether the appended rows reach a node that
// can fold them — one that distributes over ⊎ of every input they reached —
// runs the Δ pass the worlds run with the append log as its source, and
// folds each node's Δ⁺ into the artifacts built over its frozen part: rel,
// the root's answer, the join tables. A node that cannot fold is dropped
// with its ancestors and re-derived on next use; there is no retraction.

// catchUp brings the prepared state up to db, the base it was prepared
// against, after the relations it reads may have changed: prepCurrent when the
// guards still hold, prepAdvanced when only appends happened and were folded
// in, prepStale when the state has to be prepared afresh (a removal, a replaced
// relation, an append log that no longer reaches back, a reclassifying
// append, any change under a plan that reads Dom). It mutates the prepared
// state in place, so the caller must hold off mutation of db for as long as
// it uses the Prepared and every user must come through catchUp after a
// mutation — which is what PrepCache.Get under a reader lock amounts to.
func (prep *Prepared) catchUp(db *relation.Database) catchUpResult {
	prep.mu.Lock()
	defer prep.mu.Unlock()
	if db.Holds(prep.guards) {
		return prepCurrent
	}
	if db != prep.base || prep.domAll {
		return prepStale
	}
	added, ok := db.AppendedSince(prep.guards)
	if !ok || !prep.advance(added) {
		return prepStale
	}
	return prepAdvanced
}

// catchUpResult is what catchUp found.
type catchUpResult int

const (
	prepCurrent catchUpResult = iota
	prepAdvanced
	prepStale
)

// advance folds the appended rows into the prepared state. It reports false,
// having changed nothing, when they would reclassify a node.
func (prep *Prepared) advance(added map[string][]relation.Appended) bool {
	plans := append([]*Plan{prep.p}, prep.p.subs...)
	for _, q := range plans {
		for _, n := range q.nodes {
			s, ok := n.(*pscan)
			if !ok || len(prep.stateOf(q).nodes[s.id].scan.nulls) > 0 {
				continue
			}
			for _, a := range added[s.name] {
				if (a.Fresh || q.bag) && nullIn(a.T, s.cols) {
					return false // a frozen scan would start to vary
				}
			}
		}
	}
	for _, as := range added {
		prep.absorbed += len(as)
	}
	// Decide everywhere before any pass runs: a filter's pass asks whether
	// the subplans it probes grew.
	reached := make([]bool, len(plans))
	for i, q := range plans {
		reached[i] = prep.decide(q, added)
	}
	for i, q := range plans {
		if reached[i] {
			prep.fold(q, source{added: added})
		}
	}
	// The null ids and the classes are derived afresh on next use.
	prep.nullIDs.clear()
	prep.classes.clear()
	prep.pin()
	return true
}

// decide marks what the appended rows do to each node of q: it grows when
// they reach it and it can fold its Δ⁺, and is rederived — its frozen part
// dropped — when it cannot: an input they reached is one it does not
// distribute over, or was dropped itself, or nothing has been built from the
// node yet (dropping is free, and the first use builds from the advanced
// inputs). A node without a frozen part has none to fold into. It reports
// whether the rows reached q's root at all.
func (prep *Prepared) decide(q *Plan, added map[string][]relation.Appended) bool {
	ps := prep.stateOf(q)
	touched := func(n pnode) bool {
		for _, name := range n.base().reads.names {
			if _, ok := added[name]; ok {
				return true
			}
		}
		return false
	}
	for _, n := range q.nodes {
		st := &ps.nodes[n.base().id]
		st.grows, st.rederived = false, false
		if !touched(n) || st.noFrozen {
			continue
		}
		_, scan := n.(*pscan)
		blocked, dropped := false, !scan && st.frozenRows.Load() < 0
		prep.eachInput(ps, n, func(in pnode, is *nodeState) {
			if touched(in) {
				blocked = blocked || !distributes(n, in, q.bag)
				dropped = dropped || is.rederived
			}
		})
		if !blocked && !dropped {
			st.grows = true
			continue
		}
		// Blocked by an input it does not distribute over, with a left input
		// that folds: from now on re-derived from that input's consolidated
		// frozen part.
		l, _ := inputs(n)
		st.consolidate = st.consolidate || blocked && l != nil && st.frozenRows.Load() >= 0 && !ps.nodes[l.base().id].rederived
		st.rederived = true
		st.rel.clear()
		st.frozenRows.Store(-1)
		if n == q.root {
			ps.out.clear()
		}
	}
	return touched(q.root)
}

// fold runs q's Δ pass over the appended rows and folds each node's Δ⁺ into
// the artifacts built over its frozen part. The pass sees every artifact at
// the guards — a table or rel first built during it streams the relations
// without the appended rows (source) — and the folds follow it.
func (prep *Prepared) fold(q *Plan, src source) {
	ps := prep.stateOf(q)
	x := acquire(q, prep, nil, true)
	x.src, x.grown = src, make([]*vbatch, len(q.nodes))
	defer func() {
		// The tables and the templates keep rows of the pass's arena.
		x.handOver()
		x.release()
	}()
	// Top-down, so that a node no growing consumer streams — the root, an
	// input of a re-derived node or a barrier — starts a stream of its own.
	for i := len(q.nodes) - 1; i >= 0; i-- {
		if ps.nodes[i].grows && x.grown[i] == nil {
			stream(q.nodes[i], x, func(*vbatch) {})
		}
	}
	for i, n := range q.nodes {
		st, g := &ps.nodes[i], x.grown[i]
		if g != nil {
			if st.frozenRows.Load() >= 0 {
				st.frozenRows.Add(int64(len(g.rows)))
			}
			// A full-width scan's consolidated part may be the relation
			// itself, which has the rows already.
			if rel := st.rel.p.Load(); rel != nil && (st.scan == nil || rel != st.scan.rel) {
				addRows(rel, g.rows, g.mults, true)
			}
			if out := ps.out.p.Load(); out != nil && n == q.root {
				addRows(out, g.rows, g.mults, q.bag)
			}
		}
		if j, ok := n.(*pjoin); ok {
			// The join's tables follow its inputs whatever became of the join
			// itself.
			x.foldTable(&st.tableL, j.left)
			x.foldTable(&st.tableR, j.right)
		}
	}
}

// grow wraps a node's consumer in an advance so that the node's Δ⁺ is kept
// for the fold.
func (x *exec) grow(n pnode, emit func(*vbatch)) func(*vbatch) {
	g := &vbatch{}
	x.grown[n.base().id] = g
	return func(b *vbatch) {
		g.rows = append(g.rows, b.rows...)
		g.mults = append(g.mults, b.mults...)
		emit(b)
	}
}

// foldTable brings a join table over the frozen part of input in up to
// date: the input's Δ⁺ is added, a table over a dropped input is dropped.
func (x *exec) foldTable(slot *lazy[joinTable], in pnode) {
	if x.st(in).rederived {
		slot.clear()
		return
	}
	if tb, g := slot.p.Load(), x.grown[in.base().id]; tb != nil && g != nil {
		for i, t := range g.rows {
			tb.add(t, g.mults[i], x.mode == algebra.ModeSQL)
		}
	}
}

// addRows adds rows to out with their multiplicities — or, when out holds a
// set, as members.
func addRows(out *relation.Relation, rows []value.Tuple, mults []int, exact bool) {
	for i, t := range rows {
		if exact {
			out.AddMult(t, mults[i])
		} else {
			out.SetMult(t, 1)
		}
	}
}
