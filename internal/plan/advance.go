package plan

import (
	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// The advance of a Prepared across appended rows (the second axis of the
// contract in prepare.go): the delta phase runs once, bottom-up, with every
// scan emitting the appended rows of its relation in place of instantiated
// null rows, and each node's Δ⁺ — what the rows add to its frozen part — is
// folded into the artifacts built over that part. Nodes that do not
// distribute over ⊎ of the input that grew are dropped with their
// ancestors and re-derived on next use; there is no retraction.

// catchUp brings the prepared state up to db, the base it was prepared
// against, after the relations it reads may have changed: prepCurrent when the
// guards still hold, prepAdvanced when only appends happened and were folded
// in, prepStale when the state has to be prepared afresh (a removal, a replaced
// relation, an append log that no longer reaches back, a reclassifying
// append). It mutates the prepared state in place, so the caller must hold
// off mutation of db for as long as it uses the Prepared and every user must
// come through catchUp after a mutation — which is what PrepCache.Get under
// a reader lock amounts to.
func (prep *Prepared) catchUp(db *relation.Database) catchUpResult {
	prep.mu.Lock()
	defer prep.mu.Unlock()
	if db.Holds(prep.guards) {
		return prepCurrent
	}
	if db != prep.base {
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

// advPlan is one plan's share of an advance: the appended rows by relation
// and every node's Δ⁺ — empty for a node the rows did not reach, and for one
// whose frozen part was dropped instead (nodeState.rederived).
type advPlan struct {
	added map[string][]relation.Appended
	nodes []vbatch
}

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
	nullAdded, rows := false, 0
	for _, as := range added {
		rows += len(as)
		for _, a := range as {
			nullAdded = nullAdded || a.T.HasNull()
		}
	}
	if prep.domAll && nullAdded && len(prep.domNulls) == 0 {
		return false // Dom over a complete database would start to vary
	}
	prep.absorbed += rows
	for _, q := range plans {
		prep.advancePlan(q, added)
	}
	if nullAdded {
		prep.nullIDs.clear()
	}
	switch {
	case prep.domAll && nullAdded:
		prep.loadDom()
	case prep.domAll:
		prep.domConsts = prep.base.Consts()
	}
	prep.pin()
	return true
}

// advancePlan runs q's nodes bottom-up in the delta phase over the appended
// rows, folding or dropping each node's artifacts.
func (prep *Prepared) advancePlan(q *Plan, added map[string][]relation.Appended) {
	ps := prep.stateOf(q)
	for i := range ps.nodes {
		ps.nodes[i].rederived = false
	}
	touched := func(n pnode) bool {
		reads := n.base().reads
		if reads.dom {
			return true
		}
		for _, name := range reads.names {
			if _, ok := added[name]; ok {
				return true
			}
		}
		return false
	}
	if !touched(q.root) {
		return
	}
	x := acquire(q, prep, nil, true)
	x.adv = &advPlan{added: added, nodes: make([]vbatch, len(q.nodes))}
	defer func() {
		// The tables keep rows of this pass's arena.
		x.keepRows = true
		x.release()
	}()
	for _, n := range q.nodes {
		st, an := x.st(n), &x.adv.nodes[n.base().id]
		j, _ := n.(*pjoin)
		hadL := j != nil && !st.tableL.empty()
		switch {
		case !touched(n) || st.noFrozen:
			// Nothing reaches the node, or it has no frozen part to reach.
		case x.rederives(n, touched):
			st.rederived = true
			st.rel.clear()
			if l, _ := inputs(n); l != nil && st.frozenRows.Load() >= 0 && !x.st(l).rederived {
				// Dropped over its other input, with a left input that folds.
				switch n.(type) {
				case *pfilter, *pdiff, *pantiunify:
					st.consolidate = true
				}
			}
			st.frozenRows.Store(-1)
			if n == q.root {
				ps.out.clear()
			}
		default:
			n.run(x, func(b *vbatch) {
				an.rows = append(an.rows, b.rows...)
				an.mults = append(an.mults, b.mults...)
			})
			if st.frozenRows.Load() >= 0 {
				st.frozenRows.Add(int64(len(an.rows)))
			}
			// A full-width scan's consolidated part may be the relation
			// itself, which has the rows already.
			if rel := st.rel.p.Load(); rel != nil && (st.scan == nil || rel != st.scan.rel) {
				addRows(rel, an.rows, an.mults, true)
			}
			if out := ps.out.p.Load(); out != nil && n == q.root {
				addRows(out, an.rows, an.mults, q.bag)
			}
		}
		if j != nil {
			// The join's tables follow its inputs whatever became of the join
			// itself; a table over Fl first built during the run is up to date.
			if hadL {
				x.advanceTable(&st.tableL, j.left)
			}
			x.advanceTable(&st.tableR, j.right)
		}
	}
}

// rederives reports whether n's frozen part cannot take the appended rows
// as a Δ⁺: an input was dropped, nothing has been built from the node yet
// (dropping is free, and the first use builds from the advanced inputs), or
// the node does not distribute over ⊎ of the input that changed.
func (x *exec) rederives(n pnode, touched func(pnode) bool) bool {
	dropped := func(c pnode) bool { return c != nil && x.st(c).rederived }
	if l, r := inputs(n); dropped(l) || dropped(r) {
		return true
	}
	st := x.st(n)
	switch n := n.(type) {
	case *pscan:
		return false
	case *pfilter:
		changed := false
		for _, c := range n.conds {
			eachSub(c, func(sub *Plan) { changed = changed || touched(sub.root) })
		}
		if changed {
			return true
		}
	case *pjoin:
		if st.tableR.empty() {
			return true
		}
	case *pdiff:
		if x.bag || touched(n.r) {
			return true
		}
	case *pantiunify:
		if touched(n.r) {
			return true
		}
	case *pinter:
		if x.bag {
			return true
		}
	case *pdivide, *pdom:
		return true
	}
	return st.frozenRows.Load() < 0
}

// advanceTable brings a join table over the frozen part of input in up to
// date: the input's Δ⁺ is added, a table over a dropped input is dropped.
func (x *exec) advanceTable(slot *lazy[joinTable], in pnode) {
	if x.st(in).rederived {
		slot.clear()
		return
	}
	an := &x.adv.nodes[in.base().id]
	if tb := slot.p.Load(); tb != nil {
		for i, t := range an.rows {
			tb.add(t, an.mults[i], x.mode == algebra.ModeSQL)
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
