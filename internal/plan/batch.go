package plan

import (
	"incdb/internal/relation"
	"incdb/internal/value"
)

// BatchRows is the target number of rows per batch flowing between physical
// operators: large enough to amortize the per-call overhead of the old
// emit-per-tuple protocol across a cache-friendly chunk, small enough that
// a batch of tuple headers stays resident while the consumer walks it.
const BatchRows = 256

// vbatch is one batch of rows in flight between operators: parallel slices
// of tuples and their multiplicities.
//
// Ownership protocol: a batch passed to an emit callback is valid only for
// the duration of the call — the producer reuses the containers (rows,
// mults) for the next batch. The tuples themselves are immutable: they
// point either into stored relation rows or into an arena slab that is
// never rewritten once a row has been emitted, so a consumer may retain
// tuple headers (hash-table builds, dedup sets) but never the batch or
// subslices of rows/mults.
type vbatch struct {
	rows  []value.Tuple
	mults []int
}

// outBuf is one operator's per-execution output buffer: the batch being
// filled, the arena slab that backs tuples the operator constructs (joined
// rows, instantiated null rows, projections), and the operator's reusable
// per-world scratch — the Δ sets a barrier collects its inputs into, the
// small hash table a join builds over Δr, the dedup set of a distinct.
// Buffers live in the exec, not the node, so one immutable plan can execute
// concurrently; the per-plan pool (exec.go) recycles whole execs so an
// oracle worker shard reuses one warm set for every world it evaluates.
type outBuf struct {
	vbatch
	slab []value.Value
	// scratch is a per-node reusable tuple for transient evaluations that
	// never escape the operator (a join's residual check on the full
	// concatenation when only projected columns are emitted).
	scratch value.Tuple

	ld, rd deltaSet
	dtable joinTable

	// emitted counts the rows flushed since the dispatcher last cleared it:
	// the size of the node's frozen part, for EXPLAIN.
	emitted int
}

// push appends one row and flushes at the batch target.
func (o *outBuf) push(t value.Tuple, m int, emit func(*vbatch)) {
	o.rows = append(o.rows, t)
	o.mults = append(o.mults, m)
	if len(o.rows) >= BatchRows {
		o.flush(emit)
	}
}

// flush hands the pending batch to the consumer and resets the containers.
func (o *outBuf) flush(emit func(*vbatch)) {
	if len(o.rows) == 0 {
		return
	}
	o.emitted += len(o.rows)
	emit(&o.vbatch)
	o.rows = o.rows[:0]
	o.mults = o.mults[:0]
}

// Slab sizing: slabs double from minSlab up to maxSlab values, so a frozen
// part of a handful of rows retains a handful of values (frozen-phase slabs
// stay referenced by the join tables built from them) while a pooled
// per-world buffer converges on one slab large enough for its Δ.
const (
	minSlab = 32
	maxSlab = 4 * BatchRows
)

// alloc carves an n-wide tuple out of the arena slab. The three-index slice
// caps the tuple at its own region, so a later append through the returned
// header can never clobber a neighbouring row.
func (o *outBuf) alloc(n int) value.Tuple {
	if cap(o.slab)-len(o.slab) < n {
		c := 2 * cap(o.slab)
		if c < minSlab {
			c = minSlab
		}
		if c > maxSlab {
			c = maxSlab
		}
		for c < n {
			c *= 2
		}
		o.slab = make([]value.Value, 0, c)
	}
	l := len(o.slab)
	o.slab = o.slab[:l+n]
	return value.Tuple(o.slab[l : l+n : l+n])
}

// unalloc returns the most recent alloc to the slab. Only legal while the
// row has not been emitted (a join rewinds rows whose residual failed);
// emitted rows are permanent for the lifetime of the execution.
func (o *outBuf) unalloc(n int) {
	o.slab = o.slab[:len(o.slab)-n]
}

// reset clears the buffer for the next world. Rewinding the slab is safe
// exactly because no arena tuple outlives the world it was built for: every
// consumer that keeps rows across worlds (relation.AddMult at the root and
// barrier freezes, the cert∩ accumulator) clones them, and the in-flight
// consumers (Δ sets, Δr tables, dedup sets) are reset with the slab.
func (o *outBuf) reset() {
	o.rows = o.rows[:0]
	o.mults = o.mults[:0]
	o.slab = o.slab[:0]
}

// out returns the executing node's output buffer.
func (x *exec) out(n pnode) *outBuf {
	return &x.bufs[n.base().id]
}

// relSink adapts a relation to the batch protocol (the materialization
// boundaries of the frozen phase: root and barrier-input freezes). AddMult
// clones, so arena-backed tuples never leak into a relation.
func relSink(out *relation.Relation) func(*vbatch) {
	return func(b *vbatch) {
		for i, t := range b.rows {
			out.AddMult(t, b.mults[i])
		}
	}
}

// deltaLinear is the Δ size up to which membership is a linear scan: the
// common Δ is the handful of rows a valuation touches, where comparing
// tuples beats hashing them.
const deltaLinear = 8

// deltaSet is one world's consolidated Δ at a collection point (the root,
// a barrier input, an IN subquery): distinct tuples with summed
// multiplicities, in arrival order. It is dense and reusable — reset
// truncates, nothing is freed — so a steady-state world allocates nothing
// here. Tuples are retained by header and die with the world's slabs.
type deltaSet struct {
	rows   []value.Tuple
	mults  []int
	hashes []uint64 // parallel to rows once indexed
	slots  []int32  // open-addressing index (row+1, 0 empty) once indexed
	// indexed flips when the set outgrows deltaLinear.
	indexed bool
	// withNulls lists the rows that carry a null, for the three-valued
	// probes; computed on their first request after the set changed (split).
	withNulls []int32
	split     bool
}

func (d *deltaSet) reset() {
	d.rows = d.rows[:0]
	d.mults = d.mults[:0]
	d.hashes = d.hashes[:0]
	d.indexed, d.split = false, false
}

func (d *deltaSet) len() int { return len(d.rows) }

// find returns the position of t, or -1.
func (d *deltaSet) find(t value.Tuple) int {
	if !d.indexed {
		for i, r := range d.rows {
			if r.Equal(t) {
				return i
			}
		}
		return -1
	}
	return d.findHashed(t, t.Hash())
}

func (d *deltaSet) findHashed(t value.Tuple, h uint64) int {
	mask := uint64(len(d.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		i := d.slots[s]
		if i == 0 {
			return -1
		}
		if d.hashes[i-1] == h && d.rows[i-1].Equal(t) {
			return int(i - 1)
		}
	}
}

// add merges m occurrences of t into the set.
func (d *deltaSet) add(t value.Tuple, m int) {
	var h uint64
	i := -1
	if d.indexed {
		h = t.Hash()
		i = d.findHashed(t, h)
	} else {
		i = d.find(t)
	}
	if i >= 0 {
		d.mults[i] += m
		return
	}
	d.rows = append(d.rows, t)
	d.mults = append(d.mults, m)
	d.split = false
	switch {
	case d.indexed:
		d.hashes = append(d.hashes, h)
		if 2*len(d.rows) > len(d.slots) {
			d.reindex()
		} else {
			d.link(len(d.rows) - 1)
		}
	case len(d.rows) > deltaLinear:
		d.indexed = true
		for _, r := range d.rows {
			d.hashes = append(d.hashes, r.Hash())
		}
		d.reindex()
	}
}

// nullRows returns the positions of the rows that carry a null.
func (d *deltaSet) nullRows() []int32 {
	if !d.split {
		d.withNulls = d.withNulls[:0]
		for i, t := range d.rows {
			if t.HasNull() {
				d.withNulls = append(d.withNulls, int32(i))
			}
		}
		d.split = true
	}
	return d.withNulls
}

// reindex sizes the slot table to at least 4× the rows and relinks them.
func (d *deltaSet) reindex() {
	n := 4 * deltaLinear
	for n < 4*len(d.rows) {
		n *= 2
	}
	if cap(d.slots) >= n {
		d.slots = d.slots[:n]
		clear(d.slots)
	} else {
		d.slots = make([]int32, n)
	}
	for i := range d.rows {
		d.link(i)
	}
}

func (d *deltaSet) link(i int) {
	mask := uint64(len(d.slots) - 1)
	s := d.hashes[i] & mask
	for d.slots[s] != 0 {
		s = (s + 1) & mask
	}
	d.slots[s] = int32(i + 1)
}

func (d *deltaSet) contains(t value.Tuple) bool { return d.find(t) >= 0 }

func (d *deltaSet) mult(t value.Tuple) int {
	if i := d.find(t); i >= 0 {
		return d.mults[i]
	}
	return 0
}

// side is one operator input in (frozen, Δ) form at a point that must see
// the whole input rather than stream it: f is the consolidated frozen part
// (built once per Prepared, shared by every world and every goroutine; nil
// when the input has none), d this world's consolidated Δ — nil in the
// frozen phase and for inputs no valuation can change. Frozen rows never
// carry nulls (a row with a null in a read column is by definition a Δ
// row), which is what lets the three-valued probes below treat f as the
// null-free part outright.
type side struct {
	f *relation.Relation
	d *deltaSet
}

func (s side) contains(t value.Tuple) bool {
	return (s.f != nil && s.f.Contains(t)) || (s.d != nil && s.d.contains(t))
}

func (s side) mult(t value.Tuple) int {
	m := 0
	if s.f != nil {
		m = s.f.Mult(t)
	}
	if s.d != nil {
		m += s.d.mult(t)
	}
	return m
}

// each calls f on every distinct tuple of the input with its total
// multiplicity: frozen rows (plus whatever Δ adds to them), then the Δ rows
// that are not frozen rows.
func (s side) each(f func(t value.Tuple, m int)) {
	switch {
	case s.d == nil || s.d.len() == 0:
		if s.f != nil {
			s.f.EachUnordered(f)
		}
	case s.f == nil:
		for i, t := range s.d.rows {
			f(t, s.d.mults[i])
		}
	default:
		s.f.EachUnordered(func(t value.Tuple, m int) { f(t, m+s.d.mult(t)) })
		for i, t := range s.d.rows {
			if !s.f.Contains(t) {
				f(t, s.d.mults[i])
			}
		}
	}
}

// eachNullFree and eachWithNulls split the input for three-valued probes
// (SQL-mode IN, ⋉⇑): only Δ rows can carry nulls.
func (s side) eachNullFree(f func(t value.Tuple) bool) {
	stop := false
	if s.f != nil {
		s.f.EachUnordered(func(t value.Tuple, _ int) {
			if !stop && !f(t) {
				stop = true
			}
		})
	}
	if stop || s.d == nil {
		return
	}
	for _, t := range s.d.rows {
		if !t.HasNull() && !f(t) {
			return
		}
	}
}

func (s side) eachWithNulls(f func(t value.Tuple) bool) {
	if s.d == nil {
		return
	}
	for _, i := range s.d.nullRows() {
		if !f(s.d.rows[i]) {
			return
		}
	}
}

// joinTable is the multi-key hash table of one join term: rows chained per
// bucket of the combined hash of their key columns, with componentwise
// equality confirming matches. With no keys it is a plain row list (cross
// product). The layout is dense — three slices, no per-bucket allocation —
// so the frozen tables cost a few words per row and the per-world Δr table
// (outBuf.dtable) is reused by truncation.
type joinTable struct {
	keys  []int   // key columns of the stored rows
	rows  []jrow  // stored rows in insertion order
	next  []int32 // chain link per row (row+1, 0 end)
	heads []int32 // bucket heads (row+1, 0 empty); power-of-two length
}

type jrow struct {
	t value.Tuple
	m int
	h uint64
}

// reset empties the table for rows keyed on keys, presizing for sizeHint
// rows (0 when unknown).
func (tb *joinTable) reset(keys []int, sizeHint int) {
	tb.keys = keys
	tb.rows = tb.rows[:0]
	tb.next = tb.next[:0]
	if len(keys) == 0 {
		return
	}
	if sizeHint < 0 || sizeHint > 1<<20 {
		sizeHint = 0
	}
	n := 8
	for n < 2*sizeHint {
		n *= 2
	}
	if n <= cap(tb.heads) && cap(tb.heads) <= 8*n {
		tb.heads = tb.heads[:n]
		clear(tb.heads)
	} else {
		tb.heads = make([]int32, n)
	}
}

// add stores m occurrences of t. SQL-mode rows with a null key can never
// satisfy the key equalities with t and are dropped.
func (tb *joinTable) add(t value.Tuple, m int, sqlMode bool) {
	if len(tb.keys) == 0 {
		tb.rows = append(tb.rows, jrow{t: t, m: m})
		return
	}
	if sqlMode {
		for _, k := range tb.keys {
			if t[k].IsNull() {
				return
			}
		}
	}
	if len(tb.rows) >= len(tb.heads) {
		tb.grow()
	}
	h := hashCols(t, tb.keys)
	b := h & uint64(len(tb.heads)-1)
	tb.rows = append(tb.rows, jrow{t: t, m: m, h: h})
	tb.next = append(tb.next, tb.heads[b])
	tb.heads[b] = int32(len(tb.rows))
}

// grow doubles the bucket array and relinks every row.
func (tb *joinTable) grow() {
	tb.heads = make([]int32, 2*len(tb.heads))
	mask := uint64(len(tb.heads) - 1)
	for i := range tb.rows {
		b := tb.rows[i].h & mask
		tb.next[i] = tb.heads[b]
		tb.heads[b] = int32(i + 1)
	}
}

// probe calls f on every stored row whose key columns equal pt's at pkeys
// (componentwise, in key order).
func (tb *joinTable) probe(pt value.Tuple, pkeys []int, f func(st value.Tuple, sm int)) {
	if len(tb.keys) == 0 {
		for i := range tb.rows {
			f(tb.rows[i].t, tb.rows[i].m)
		}
		return
	}
	if len(tb.rows) == 0 {
		return
	}
	h := hashCols(pt, pkeys)
next:
	for i := tb.heads[h&uint64(len(tb.heads)-1)]; i != 0; i = tb.next[i-1] {
		e := &tb.rows[i-1]
		if e.h != h {
			continue
		}
		for j, pk := range pkeys {
			if pt[pk] != e.t[tb.keys[j]] {
				continue next
			}
		}
		f(e.t, e.m)
	}
}

func hashCols(t value.Tuple, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ t[c].Hash()) * 1099511628211
	}
	return h
}
