// Package relation implements relations over constants and marked nulls,
// and incomplete databases built from them (Section 2 of the paper).
//
// Relations carry tuple multiplicities so that both the set semantics used
// throughout Sections 3–5 and the bag semantics of Section 4.2 run on the
// same representation: set-semantics operators normalize all multiplicities
// to one, bag-semantics operators combine them the way SQL does.
//
// Storage is hash-native: rows live in buckets keyed by the tuple's cached
// 64-bit hash (value.Tuple.Hash), with collisions resolved by
// value.Tuple.Equal — no per-probe string Key() is ever materialized.
// Deterministic iteration comes from a lazily built sorted row snapshot
// that structural mutation invalidates.
package relation

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"incdb/internal/value"
)

// Relation is a finite multiset of tuples of a fixed arity, optionally with
// attribute names for display. The zero value is not usable; construct with
// New.
type Relation struct {
	name  string
	attrs []string
	arity int
	// rows buckets the stored rows by their cached tuple hash; a bucket
	// holds the (rare) rows whose distinct tuples collide on the hash.
	rows map[uint64][]*row
	// distinct counts stored rows, i.e. distinct tuples.
	distinct int
	// sorted is the lazily built deterministic iteration order: all rows
	// sorted by Tuple.Compare. Structural mutation invalidates it (stores
	// nil). It is an atomic pointer so that goroutines sharing a read-only
	// relation may race on the first lazy build: both build the same
	// deterministic snapshot and publication is idempotent.
	sorted atomic.Pointer[[]*row]
	// nullState caches HasNulls: 0 unknown, 1 null-free, 2 has nulls.
	// Atomic for the same reason as sorted: concurrent readers of a stable
	// relation may race on the first computation, which is idempotent. An
	// insert keeps it (a null-free relation stays null-free unless the new
	// row has a null; "has nulls" stays); only a removal resets it.
	nullState atomic.Int32
	// statsCache holds the lazily computed statistics snapshot (stats.go),
	// keyed by the version it was computed at rather than invalidated
	// eagerly — Normalize moves the version without calling invalidate.
	statsCache atomic.Pointer[statsSnap]
	// version counts content mutations: every Add/AddMult/SetMult/Normalize
	// call bumps it (even when the call turns out to be a no-op — the
	// counter over-approximates change, it never misses one). Long-lived
	// consumers key cached derived state (prepared plans, frozen parts)
	// on it and re-derive exactly when the version moves. Mutation
	// requires external exclusivity anyway, so the counter is a plain word;
	// readers of a stable relation see a stable value.
	version uint64
	// log is the append log (appendlog.go): the inserts since version
	// logFrom, kept once watched says a holder pinned the relation (Pin)
	// and may ask for them (AppendedSince). A prepared plan is that holder.
	log     []Appended
	logFrom uint64
	watched atomic.Bool
}

// row is one stored tuple with its multiplicity and cached content hash.
// The hash is computed once at insertion and reused by every later probe,
// clone and world-instantiation of the row.
type row struct {
	t       value.Tuple
	hash    uint64
	mult    int
	hasNull bool
}

// New returns an empty relation with the given name and attribute names.
// The arity is len(attrs).
func New(name string, attrs ...string) *Relation {
	return &Relation{name: name, attrs: attrs, arity: len(attrs), rows: map[uint64][]*row{}}
}

// NewArity returns an empty relation with the given arity and synthesized
// attribute names #0, #1, ….
func NewArity(name string, arity int) *Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = "#" + strconv.Itoa(i)
	}
	return New(name, attrs...)
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Attrs returns the attribute names (do not modify).
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.arity }

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// lookup returns the stored row equal to t under hash h, or nil.
func (r *Relation) lookup(t value.Tuple, h uint64) *row {
	for _, e := range r.rows[h] {
		if e.t.Equal(t) {
			return e
		}
	}
	return nil
}

// invalidate drops the sorted snapshot and bumps the mutation version;
// every structural mutation calls it because rows may appear or vanish.
func (r *Relation) invalidate() {
	r.sorted.Store(nil)
	r.version++
}

// Version returns the mutation counter: it moves on every mutating call
// (Add, AddMult, SetMult, Normalize), so equal versions of the same
// relation object guarantee identical contents. Clone preserves the
// version; valuation instantiation (Apply) builds fresh relations starting
// at zero.
func (r *Relation) Version() uint64 { return r.version }

// RestoreVersion raises the mutation counter to v (a no-op when the counter
// is already past it). Crash recovery uses it so that a relation rebuilt
// from a snapshot reports the same version vector as the original did at
// snapshot time — the counter over-approximates change, so jumping it
// forward is always safe, while lowering it could revive stale cached
// state; hence the clamp. Requires the external exclusivity every mutation
// does.
func (r *Relation) RestoreVersion(v uint64) {
	if v > r.version {
		r.version = v
		r.endLog()
	}
}

// removeRow deletes the stored row equal to t under hash h, if present.
func (r *Relation) removeRow(t value.Tuple, h uint64) {
	bucket := r.rows[h]
	for i, e := range bucket {
		if e.t.Equal(t) {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(r.rows, h)
			} else {
				r.rows[h] = bucket
			}
			r.distinct--
			r.nullState.Store(0)
			return
		}
	}
}

// insertRow stores a fresh row; t must not be aliased by the caller
// afterwards (Add clones on behalf of external callers, world
// instantiation hands over freshly built or frozen tuples).
func (r *Relation) insertRow(t value.Tuple, h uint64, m int) {
	e := &row{t: t, hash: h, mult: m, hasNull: t.HasNull()}
	r.rows[h] = append(r.rows[h], e)
	r.distinct++
	if e.hasNull {
		r.nullState.Store(2)
	}
}

// Add inserts one occurrence of t. It panics on arity mismatch: feeding a
// wrongly shaped tuple is always a bug in the caller.
func (r *Relation) Add(t value.Tuple) { r.AddMult(t, 1) }

// AddMult inserts m occurrences of t (m may be negative to subtract;
// multiplicities are clamped at zero and zero-rows removed, matching SQL's
// EXCEPT ALL arithmetic).
func (r *Relation) AddMult(t value.Tuple, m int) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation %s: arity mismatch: tuple %v vs arity %d", r.name, t, r.arity))
	}
	r.invalidate()
	h := t.Hash()
	e := r.lookup(t, h)
	switch {
	case m < 0:
		r.endLog()
	case m > 0 && e == nil:
		t = t.Clone()
		r.logInsert(t, m, true)
	case m > 0:
		r.logInsert(e.t, m, false)
	}
	if e == nil {
		if m > 0 {
			r.insertRow(t, h, m)
		}
		return
	}
	e.mult += m
	if e.mult <= 0 {
		r.removeRow(t, h)
	}
}

// addFrozen inserts m occurrences of an immutable tuple with a known hash,
// skipping both the re-hash and the defensive clone. It is the fast path of
// Apply/Clone: stored rows are never mutated, so sharing the tuple slice
// between the source and destination relation is safe.
func (r *Relation) addFrozen(t value.Tuple, h uint64, hasNull bool, m int) {
	if e := r.lookup(t, h); e != nil {
		e.mult += m
		if e.mult <= 0 {
			r.removeRow(t, h)
		}
		return
	}
	if m <= 0 {
		return
	}
	r.rows[h] = append(r.rows[h], &row{t: t, hash: h, mult: m, hasNull: hasNull})
	r.distinct++
}

// SetMult sets the multiplicity of t to m exactly (removing it when m<=0).
func (r *Relation) SetMult(t value.Tuple, m int) {
	r.invalidate()
	r.endLog()
	h := t.Hash()
	e := r.lookup(t, h)
	if m <= 0 {
		if e != nil {
			r.removeRow(t, h)
		}
		return
	}
	if e != nil {
		e.mult = m
		return
	}
	r.insertRow(t.Clone(), h, m)
}

// Contains reports whether t occurs at least once.
func (r *Relation) Contains(t value.Tuple) bool {
	return r.lookup(t, t.Hash()) != nil
}

// Mult returns the multiplicity #(t, R), zero when absent.
func (r *Relation) Mult(t value.Tuple) int {
	if e := r.lookup(t, t.Hash()); e != nil {
		return e.mult
	}
	return 0
}

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return r.distinct }

// Size returns the total number of tuple occurrences (bag cardinality).
func (r *Relation) Size() int {
	n := 0
	for _, bucket := range r.rows {
		for _, e := range bucket {
			n += e.mult
		}
	}
	return n
}

// sortedRows returns the deterministic row order, building it on first use
// after a mutation. Concurrent readers of a stable relation may both build
// it; the snapshot is a pure function of the rows, so either publication
// wins harmlessly.
func (r *Relation) sortedRows() []*row {
	if p := r.sorted.Load(); p != nil {
		return *p
	}
	rows := make([]*row, 0, r.distinct)
	for _, bucket := range r.rows {
		rows = append(rows, bucket...)
	}
	slices.SortFunc(rows, func(a, b *row) int { return a.t.Compare(b.t) })
	r.sorted.Store(&rows)
	return rows
}

// Tuples returns the distinct tuples in deterministic (sorted) order.
func (r *Relation) Tuples() []value.Tuple {
	rows := r.sortedRows()
	out := make([]value.Tuple, len(rows))
	for i, e := range rows {
		out[i] = e.t
	}
	return out
}

// Each calls f on every distinct tuple with its multiplicity, in
// deterministic order. f must not mutate the tuple. The iteration reads the
// row entries directly — no per-tuple key lookup.
func (r *Relation) Each(f func(t value.Tuple, mult int)) {
	for _, e := range r.sortedRows() {
		f(e.t, e.mult)
	}
}

// EachUnordered calls f on every distinct tuple with its multiplicity, in
// unspecified (storage) order. It builds no derived structures, so it is
// both cheaper than Each and safe for concurrent readers of a shared
// relation; use it whenever the consumer is order-insensitive (streaming
// operators, hash-table builds, candidate collection).
func (r *Relation) EachUnordered(f func(t value.Tuple, mult int)) {
	for _, bucket := range r.rows {
		for _, e := range bucket {
			f(e.t, e.mult)
		}
	}
}

// eachStored calls f on every stored row in storage (bucket) order,
// stopping early when f returns false: the cheap iteration for
// order-insensitive consumers such as Apply and the database catalogue
// scans. It builds nothing, so concurrent readers of a shared relation
// stay read-only.
func (r *Relation) eachStored(f func(e *row) bool) {
	for _, bucket := range r.rows {
		for _, e := range bucket {
			if !f(e) {
				return
			}
		}
	}
}

// Normalize sets every multiplicity to one (bag → set). The sorted
// snapshot survives: it holds row pointers, so multiplicity updates are
// visible through it, and the sort order ignores multiplicities. The
// mutation version still moves — bag-semantics consumers of cached state
// would otherwise miss the multiplicity change.
func (r *Relation) Normalize() {
	r.version++
	r.endLog()
	for _, bucket := range r.rows {
		for _, e := range bucket {
			e.mult = 1
		}
	}
}

// Clone returns a deep copy, optionally renamed. Stored tuples are
// immutable, so the copy shares them (and their cached hashes) with the
// original; only the row entries themselves are fresh.
func (r *Relation) Clone() *Relation {
	c := &Relation{name: r.name, attrs: append([]string(nil), r.attrs...), arity: r.arity,
		rows: make(map[uint64][]*row, len(r.rows)), distinct: r.distinct, version: r.version, logFrom: r.version}
	for h, bucket := range r.rows {
		nb := make([]*row, len(bucket))
		for i, e := range bucket {
			nb[i] = &row{t: e.t, hash: e.hash, mult: e.mult, hasNull: e.hasNull}
		}
		c.rows[h] = nb
	}
	return c
}

// Rename returns r itself after setting its name; handy when materializing
// intermediate results.
func (r *Relation) Rename(name string) *Relation {
	r.name = name
	return r
}

// Equal reports whether the two relations hold exactly the same multiset of
// tuples (names and attribute labels are ignored).
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || r.distinct != s.distinct {
		return false
	}
	for _, bucket := range r.rows {
		for _, e := range bucket {
			f := s.lookup(e.t, e.hash)
			if f == nil || f.mult != e.mult {
				return false
			}
		}
	}
	return true
}

// EqualSet reports set-semantics equality: same distinct tuples,
// multiplicities ignored.
func (r *Relation) EqualSet(s *Relation) bool {
	if r.arity != s.arity || r.distinct != s.distinct {
		return false
	}
	return r.SubsetOfSet(s)
}

// SubsetOfSet reports whether every distinct tuple of r occurs in s.
func (r *Relation) SubsetOfSet(s *Relation) bool {
	for _, bucket := range r.rows {
		for _, e := range bucket {
			if s.lookup(e.t, e.hash) == nil {
				return false
			}
		}
	}
	return true
}

// HasNulls reports whether any stored tuple contains a null. The answer is
// cached and kept up to date by inserts — a removal resets it — so appends
// do not make the next Prepare, which consults it per scanned relation to
// decide which a valuation can change at all, walk the relation again.
func (r *Relation) HasNulls() bool {
	if s := r.nullState.Load(); s != 0 {
		return s == 2
	}
	state := int32(1)
	for _, bucket := range r.rows {
		for _, e := range bucket {
			if e.hasNull {
				state = 2
				break
			}
		}
		if state == 2 {
			break
		}
	}
	r.nullState.Store(state)
	return state == 2
}

// Apply returns the relation v(R): every bound null replaced, multiplicities
// of collapsing tuples added (the "add up multiplicities" reading of
// applying valuations to bags, cf. [42] as discussed in Section 6).
//
// Null-free rows cannot change under any valuation, so they are inserted by
// sharing the stored tuple and its cached hash: only the rows that actually
// mention nulls are re-hashed and re-allocated. (The oracles do not build
// worlds at all — internal/plan instantiates null rows inside the executor;
// Apply serves the chase, constraint checks over a world, and the tests'
// reference worlds.)
func (r *Relation) Apply(v value.Valuation) *Relation {
	out := New(r.name, r.attrs...)
	r.eachStored(func(e *row) bool {
		if !e.hasNull {
			out.addFrozen(e.t, e.hash, false, e.mult)
			return true
		}
		// The instantiated tuple is exclusively ours, so it can be stored
		// frozen too — one allocation and one hash per null row.
		nt := v.Apply(e.t)
		out.addFrozen(nt, nt.Hash(), nt.HasNull(), e.mult)
		return true
	})
	return out
}

// String renders the relation as a small aligned table, deterministically.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) {", r.name, strings.Join(r.attrs, ", "))
	rows := r.sortedRows()
	if len(rows) == 0 {
		b.WriteString("}")
		return b.String()
	}
	b.WriteString("\n")
	for _, e := range rows {
		if e.mult == 1 {
			fmt.Fprintf(&b, "  %s\n", e.t)
		} else {
			fmt.Fprintf(&b, "  %s ×%d\n", e.t, e.mult)
		}
	}
	b.WriteString("}")
	return b.String()
}

// FromTuples builds a set-semantics relation from tuples.
func FromTuples(name string, arity int, ts ...value.Tuple) *Relation {
	r := NewArity(name, arity)
	for _, t := range ts {
		r.Add(t)
	}
	return r
}
