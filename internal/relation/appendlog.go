package relation

import "incdb/internal/value"

// Appended is one logged insert: M more occurrences of T. Fresh reports
// that T was not stored before — the only kind of insert a set-semantics
// consumer can observe. T is the stored tuple: shared, never to be
// modified.
type Appended struct {
	T     value.Tuple
	M     int
	Fresh bool
	// ver is the relation's version right after the insert.
	ver uint64
}

// maxAppendLog bounds the append log. A holder of derived state that falls
// further behind than this re-derives from the relation, which at that
// distance costs about what catching up would.
const maxAppendLog = 256

// logInsert records an insert made at the current (already bumped)
// version. Nothing is kept while no holder has pinned the relation with Pin
// — results, frozen artifacts, worlds and whole-catalogue state never do —
// so the log then just starts at the present.
func (r *Relation) logInsert(t value.Tuple, m int, fresh bool) {
	if !r.watched.Load() {
		r.logFrom = r.version
		return
	}
	if len(r.log) == maxAppendLog {
		// Forget the older half; whoever still needed it re-derives.
		half := maxAppendLog / 2
		r.logFrom = r.log[half-1].ver
		r.log = r.log[:copy(r.log, r.log[half:])]
	}
	r.log = append(r.log, Appended{T: t, M: m, Fresh: fresh, ver: r.version})
}

// endLog restarts the log at the current version: the mutation that just
// happened was not an insert (a removal, a multiplicity overwrite, a
// version jump), so nothing derived before it can be caught up by adding
// rows.
func (r *Relation) endLog() {
	r.log = r.log[:0]
	r.logFrom = r.version
}

// AppendedSince returns the rows inserted since the relation was at
// version v, oldest first, or ok=false when that is not known: something
// other than inserts happened since (SetMult, a subtracting AddMult,
// Normalize, RestoreVersion), the bounded log has forgotten that far back,
// or nobody had pinned the relation when v was current. The slice aliases
// the log: it is valid until the next mutation.
func (r *Relation) AppendedSince(v uint64) (rows []Appended, ok bool) {
	if v < r.logFrom || v > r.version {
		return nil, false
	}
	i := len(r.log)
	for i > 0 && r.log[i-1].ver > v {
		i--
	}
	return r.log[i:], true
}
