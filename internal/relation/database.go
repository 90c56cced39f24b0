package relation

import (
	"sort"
	"strings"
	"sync/atomic"

	"incdb/internal/value"
)

// Database is an incomplete relational instance D: a set of named relations
// whose tuples range over Const ∪ Null (Section 2). It also serves as the
// schema catalogue (relation names and arities) for query evaluation, and
// as the allocator of fresh marked nulls.
type Database struct {
	rels     map[string]*Relation
	order    []string
	nextNull uint64
	// consts caches Consts() under the pins it was computed at. Atomic so
	// that concurrent readers of a stable database may race on the first
	// computation, which is idempotent; behind a pointer so that a Database
	// value stays assignable (crash recovery replaces one in place), which
	// at worst shares a cache whose snapshots validate themselves.
	consts *atomic.Pointer[constsSnap]
}

// constsSnap is a computed Const(D) and the whole-catalogue pins it holds
// under.
type constsSnap struct {
	pins   Pins
	consts []value.Value
}

// Pins is the guard under which state derived from some relations of a
// database may be cached: per pinned name, the relation object and its
// mutation version as the database presented them. Mutation requires
// exclusivity, so a holder re-checks its pins (Holds) at the start of each
// use and re-derives when a pinned relation changed. The one holder that
// catches up instead, a prepared plan, asks what was appended since
// (AppendedSince) and re-derives when that is not an answer.
type Pins struct {
	names    []string
	rels     []*Relation // nil: the name was absent
	versions []uint64
	// all: the pins cover the whole catalogue, so a relation added later
	// breaks them too.
	all bool
}

// Pin pins the named relations as d presents them now. A pinned relation
// starts keeping its append log, so the holder can later ask what was added
// (AppendedSince) instead of re-deriving.
func (d *Database) Pin(names []string) Pins { return d.pin(names, false) }

// PinAll pins every relation of d and the catalogue itself. It starts no
// append log: a holder of whole-catalogue state re-derives after any change.
func (d *Database) PinAll() Pins { return d.pin(d.Names(), true) }

func (d *Database) pin(names []string, all bool) Pins {
	p := Pins{names: names, rels: make([]*Relation, len(names)), versions: make([]uint64, len(names)), all: all}
	for i, name := range names {
		if r := d.rels[name]; r != nil {
			p.rels[i], p.versions[i] = r, r.version
			if !all && !r.watched.Load() { // concurrent readers pin: write the flag once
				r.watched.Store(true)
			}
		}
	}
	return p
}

// Holds reports whether d presents every pinned relation as the same object
// at the same mutation version (and, for PinAll, no other relation).
func (d *Database) Holds(p Pins) bool {
	if p.all && len(d.order) != len(p.names) {
		return false
	}
	for i, name := range p.names {
		r := d.rels[name]
		if r != p.rels[i] || (r != nil && r.version != p.versions[i]) {
			return false
		}
	}
	return true
}

// AppendedSince returns, for every relation p pinned (Pin) that changed, the
// rows inserted into it since p was taken, keyed by name — or ok=false when
// the difference between then and now is not a set of inserts: a pinned
// relation was replaced, dropped or created, or its append log cannot answer
// (Relation.AppendedSince). The rows alias the logs and are valid until the
// next mutation.
func (d *Database) AppendedSince(p Pins) (added map[string][]Appended, ok bool) {
	for i, name := range p.names {
		r := d.rels[name]
		if r != p.rels[i] {
			return nil, false
		}
		if r == nil || r.version == p.versions[i] {
			continue
		}
		rows, ok := r.AppendedSince(p.versions[i])
		if !ok {
			return nil, false
		}
		if added == nil {
			added = map[string][]Appended{}
		}
		added[name] = rows
	}
	return added, true
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: map[string]*Relation{}, nextNull: 1, consts: new(atomic.Pointer[constsSnap])}
}

// Add registers a relation; it replaces any previous relation of the same
// name. The database adopts (does not copy) the relation.
func (d *Database) Add(r *Relation) *Database {
	if _, ok := d.rels[r.name]; !ok {
		d.order = append(d.order, r.name)
	}
	d.rels[r.name] = r
	// Keep the fresh-null allocator ahead of any null already present.
	r.eachStored(func(e *row) bool {
		for _, v := range e.t {
			if v.IsNull() && v.NullID() >= d.nextNull {
				d.nextNull = v.NullID() + 1
			}
		}
		return true
	})
	return d
}

// Relation returns the named relation, or nil.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// MustRelation returns the named relation or panics; use when the schema is
// known statically.
func (d *Database) MustRelation(name string) *Relation {
	r := d.rels[name]
	if r == nil {
		panic("relation: no relation named " + name)
	}
	return r
}

// Names returns the relation names in insertion order.
func (d *Database) Names() []string { return append([]string(nil), d.order...) }

// Arity returns the arity of the named relation, or -1 when absent.
func (d *Database) Arity(name string) int {
	if r := d.rels[name]; r != nil {
		return r.arity
	}
	return -1
}

// Versions returns the database's version vector: every relation's
// mutation counter (Relation.Version), keyed by name. Two snapshots of the
// same database object with equal vectors are guaranteed to hold identical
// contents; a service hands it to clients as a consistency token.
func (d *Database) Versions() map[string]uint64 {
	out := make(map[string]uint64, len(d.rels))
	for name, r := range d.rels {
		out[name] = r.version
	}
	return out
}

// FreshNull allocates a marked null unused anywhere in the database so far.
func (d *Database) FreshNull() value.Value {
	v := value.Null(d.nextNull)
	d.nextNull++
	return v
}

// NextNull returns the identifier the next FreshNull call would allocate.
// A durable snapshot records it so that a restored database keeps allocating
// exactly where the original left off — replaying the same load sequence
// after recovery then reproduces the same null identifiers.
func (d *Database) NextNull() uint64 { return d.nextNull }

// ReserveNull marks ⊥id as used: FreshNull will never return it (or any
// smaller identifier) afterwards. The snapshot loader calls it when null
// tokens are mapped back verbatim instead of being freshly allocated.
func (d *Database) ReserveNull(id uint64) {
	if id >= d.nextNull {
		d.nextNull = id + 1
	}
}

// Consts returns the set Const(D) of constants occurring in the database,
// in deterministic order. The walk over every relation is cached under the
// whole catalogue's pins — the oracles ask once per call for the range of
// their valuation space — and any mutation since (an insert too) walks
// again. The returned slice is shared and capped at its length: appending
// to it copies, writing into it is not allowed.
func (d *Database) Consts() []value.Value {
	if s := d.consts.Load(); s != nil && d.Holds(s.pins) {
		return s.consts
	}
	snap := &constsSnap{pins: d.PinAll()}
	seen := map[value.Value]bool{}
	var out []value.Value
	for _, name := range d.order {
		d.rels[name].eachStored(func(e *row) bool {
			for _, v := range e.t {
				if v.IsConst() && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return value.OrderLess(out[i], out[j]) })
	snap.consts = out[:len(out):len(out)]
	d.consts.Store(snap)
	return snap.consts
}

// NullIDs returns the identifiers of Null(D), sorted.
func (d *Database) NullIDs() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, name := range d.order {
		d.rels[name].eachStored(func(e *row) bool {
			for _, v := range e.t {
				if v.IsNull() && !seen[v.NullID()] {
					seen[v.NullID()] = true
					out = append(out, v.NullID())
				}
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ActiveDomain returns dom(D) = Const(D) ∪ Null(D), constants first, in
// deterministic order.
func (d *Database) ActiveDomain() []value.Value {
	out := d.Consts()
	for _, id := range d.NullIDs() {
		out = append(out, value.Null(id))
	}
	return out
}

// IsComplete reports whether the database has no nulls.
func (d *Database) IsComplete() bool {
	for _, name := range d.order {
		if d.rels[name].HasNulls() {
			return false
		}
	}
	return true
}

// Apply returns v(D): every relation with the valuation applied. When v
// covers all of Null(D), the result is a possible world of D under cwa.
func (d *Database) Apply(v value.Valuation) *Database {
	out := NewDatabase()
	for _, name := range d.order {
		out.Add(d.rels[name].Apply(v))
	}
	return out
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	out := NewDatabase()
	for _, name := range d.order {
		out.Add(d.rels[name].Clone())
	}
	out.nextNull = d.nextNull
	return out
}

// Equal reports whether both databases have the same relations with the
// same contents (bag equality), relation by relation.
func (d *Database) Equal(e *Database) bool {
	if len(d.rels) != len(e.rels) {
		return false
	}
	for name, r := range d.rels {
		s, ok := e.rels[name]
		if !ok || !r.Equal(s) {
			return false
		}
	}
	return true
}

// String renders all relations deterministically.
func (d *Database) String() string {
	var parts []string
	for _, name := range d.order {
		parts = append(parts, d.rels[name].String())
	}
	return strings.Join(parts, "\n")
}

// Codd returns the Codd-null transform codd(D) of Section 6 ("Marked
// nulls"): every null *occurrence* is replaced by a globally fresh null, so
// no null repeats — the standard reading of SQL's NULL as non-repeating
// marked nulls.
func Codd(d *Database) *Database {
	out := NewDatabase()
	next := uint64(1)
	for _, name := range d.order {
		src := d.rels[name]
		dst := New(src.name, src.attrs...)
		// Deterministic order so that renumbering is reproducible.
		for _, t := range src.Tuples() {
			m := src.Mult(t)
			nt := make(value.Tuple, len(t))
			for i, v := range t {
				if v.IsNull() {
					nt[i] = value.Null(next)
					next++
				} else {
					nt[i] = v
				}
			}
			dst.AddMult(nt, m)
		}
		out.Add(dst)
	}
	out.nextNull = next
	return out
}

// IsCoddDatabase reports whether no null id occurs more than once across
// the whole database (counting multiplicities as a single occurrence of the
// stored tuple).
func IsCoddDatabase(d *Database) bool {
	seen := map[uint64]bool{}
	for _, name := range d.order {
		repeated := false
		d.rels[name].eachStored(func(e *row) bool {
			for _, v := range e.t {
				if v.IsNull() {
					if seen[v.NullID()] {
						repeated = true
						return false
					}
					seen[v.NullID()] = true
				}
			}
			return true
		})
		if repeated {
			return false
		}
	}
	return true
}

// Homomorphic renaming support: RenameNulls applies a null-to-null renaming
// map to the whole database, used when comparing query results up to null
// renaming (e.g. for the codd(Q(D)) ≡ Q(codd(D)) experiments).
func (d *Database) RenameNulls(m map[uint64]uint64) *Database {
	out := NewDatabase()
	for _, name := range d.order {
		src := d.rels[name]
		dst := New(src.name, src.attrs...)
		src.Each(func(t value.Tuple, mult int) {
			nt := make(value.Tuple, len(t))
			for i, v := range t {
				if v.IsNull() {
					if id, ok := m[v.NullID()]; ok {
						nt[i] = value.Null(id)
						continue
					}
				}
				nt[i] = v
			}
			dst.AddMult(nt, mult)
		})
		out.Add(dst)
	}
	return out
}

// EqualUpToNullRenaming reports whether two relations are equal modulo a
// bijective renaming of nulls. It searches for a renaming by backtracking
// over the (small) null sets; intended for tests and experiments.
func EqualUpToNullRenaming(a, b *Relation) bool {
	if a.arity != b.arity || a.distinct != b.distinct {
		return false
	}
	idsOf := func(r *Relation) []uint64 {
		seen := map[uint64]bool{}
		var out []uint64
		r.eachStored(func(e *row) bool {
			for _, v := range e.t {
				if v.IsNull() && !seen[v.NullID()] {
					seen[v.NullID()] = true
					out = append(out, v.NullID())
				}
			}
			return true
		})
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	aIDs, bIDs := idsOf(a), idsOf(b)
	if len(aIDs) != len(bIDs) {
		return false
	}
	used := make(map[uint64]bool, len(bIDs))
	ren := map[uint64]uint64{}
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(aIDs) {
			// Check equality under ren; the first mismatching row refutes
			// the candidate renaming and stops the scan.
			ok := true
			a.eachStored(func(e *row) bool {
				nt := make(value.Tuple, len(e.t))
				for j, v := range e.t {
					if v.IsNull() {
						nt[j] = value.Null(ren[v.NullID()])
					} else {
						nt[j] = v
					}
				}
				if b.Mult(nt) != e.mult {
					ok = false
				}
				return ok
			})
			return ok
		}
		for _, cand := range bIDs {
			if used[cand] {
				continue
			}
			used[cand] = true
			ren[aIDs[i]] = cand
			if try(i + 1) {
				return true
			}
			used[cand] = false
		}
		return false
	}
	return try(0)
}
