package relation

import (
	"math/bits"

	"incdb/internal/value"
)

// Stats is a cheap statistics snapshot of one relation, computed in a
// single pass over the stored rows and cached on the mutation version. The
// counts are exact for the relation as stored — which makes them exact for
// every frozen part's input — and merely a conservative estimate
// for anything a valuation can still change: a world can collapse distinct
// tuples that differ only on nulls, never create new distinct values, so
// the stored counts upper-bound every world's.
type Stats struct {
	// Rows counts distinct stored tuples; Size counts tuple occurrences
	// (bag cardinality).
	Rows int
	Size int
	// ColDistinct[i] counts distinct values stored in column i (marked
	// nulls count as themselves); ColNulls[i] counts rows whose column i is
	// a null.
	ColDistinct []int
	ColNulls    []int
}

// statsSnap pins a computed Stats to the mutation version it was computed
// at; Stats() re-derives exactly when the version moves.
type statsSnap struct {
	version uint64
	stats   Stats
}

// Stats returns the relation's statistics snapshot, computing it on first
// use per mutation version. Concurrent readers of a stable relation may
// race on the first computation, which is idempotent (same reasoning as
// sortedRows and HasNulls).
func (r *Relation) Stats() Stats {
	if s := r.statsCache.Load(); s != nil && s.version == r.version {
		return s.stats
	}
	st := Stats{
		Rows:        r.distinct,
		ColDistinct: make([]int, r.arity),
		ColNulls:    make([]int, r.arity),
	}
	seen := make([]map[value.Value]struct{}, r.arity)
	for i := range seen {
		seen[i] = make(map[value.Value]struct{}, r.distinct)
	}
	for _, bucket := range r.rows {
		for _, e := range bucket {
			st.Size += e.mult
			for i, v := range e.t {
				if _, ok := seen[i][v]; !ok {
					seen[i][v] = struct{}{}
					st.ColDistinct[i]++
				}
				if v.IsNull() {
					st.ColNulls[i]++
				}
			}
		}
	}
	r.statsCache.Store(&statsSnap{version: r.version, stats: st})
	return st
}

// StatsEpoch buckets the relation's cardinality into its log₂ class. Plan
// caches fold it into their keys: a plan compiled for one cardinality class
// is reused until the relation roughly doubles or halves — coarse enough
// not to thrash the cache on every mutation, fine enough that growing past
// a join-order flip point recompiles.
func (r *Relation) StatsEpoch() uint64 {
	return uint64(bits.Len64(uint64(r.distinct)))
}
