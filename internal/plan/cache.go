package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"incdb/internal/algebra"
	"incdb/internal/lru"
	"incdb/internal/relation"
)

// PrepCache caches Prepared plans across calls so that the frozen parts a
// Prepared accumulates — the root's frozen answer, join tables, consolidated
// barrier and subquery inputs — survive beyond a single oracle invocation,
// along with the row partition and the relevant null ids. Entries are keyed
// by (query rendering, mode, semantics, read-relation arities) and guarded
// by the pins Prepare recorded. A lookup brings the entry up to the caller's
// database (Prepared.catchUp): it serves as it stands when no relation its
// plan reads has changed, it is advanced — the appended rows folded into its
// frozen artifacts — when those relations have only gained rows, and it is
// dropped and prepared afresh otherwise (a removal, a replaced relation,
// more appends than a relation's bounded append log remembers, an append
// that would reclassify a node). A relation that has moved to another log₂
// size class since the plan was costed has the plan re-costed first: the
// entry carries on when the cost model still picks the same physical plan,
// and is prepared afresh with the new one when it does not.
//
// All methods are safe for concurrent use, and the Prepared values handed
// out are safe for concurrent execution — a server can share one PrepCache
// per session across request goroutines — under the usual reader/writer
// discipline, which the advance relies on: a Prepared is looked up and used
// inside one hold of a lock that excludes mutations of the database, and not
// kept across one. Then whoever looks an entry up first after an append
// advances it in place, under the entry's own lock, while nobody can be
// executing it: every execution in flight looked it up at the present
// version. The cache itself never mutates the database. A nil *PrepCache is
// valid everywhere one is accepted and simply prepares afresh on every call.
type PrepCache struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*Prepared
	order   lru.Order

	hits          atomic.Uint64
	misses        atomic.Uint64
	advances      atomic.Uint64
	invalidations atomic.Uint64
}

// DefaultPrepCacheCap bounds a cache constructed with capacity <= 0.
const DefaultPrepCacheCap = 64

// NewPrepCache returns a cache holding at most capacity prepared plans
// (capacity <= 0 means DefaultPrepCacheCap); least recently used entries
// are evicted first.
func NewPrepCache(capacity int) *PrepCache {
	if capacity <= 0 {
		capacity = DefaultPrepCacheCap
	}
	return &PrepCache{capacity: capacity, entries: map[string]*Prepared{}}
}

// CacheStats is a snapshot of the cache counters. A hit is a lookup served
// by a cached entry, as it stood or advanced; an advance is a hit whose entry
// first had appended rows folded in; an invalidation is a lookup that found
// an entry it could not advance either (the entry is dropped and prepared
// afresh); a miss is a lookup that found no entry for its plan — none at
// all, or one whose re-costed plan has another shape.
type CacheStats struct {
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Advances      uint64 `json:"advances"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats returns a snapshot of the counters.
func (c *PrepCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Entries:       n,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Advances:      c.advances.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Get returns a Prepared for q against base: the cached one when its guard
// still holds or it could be advanced to base's present version
// (Prepared.catchUp), a freshly prepared (and cached) one otherwise. A nil
// receiver prepares afresh without caching.
func (c *PrepCache) Get(base *relation.Database, q algebra.Expr, mode algebra.Mode, bag bool) *Prepared {
	if c == nil {
		return PlanFor(q, base, mode, bag).Prepare(base)
	}
	key := cacheKey(q, base, mode, bag, false)
	c.mu.Lock()
	prep := c.entries[key]
	if prep != nil {
		c.order.Touch(key)
	}
	c.mu.Unlock()
	if prep == nil || !prep.recost(base, q, mode, bag) {
		c.misses.Add(1)
	} else {
		// Catching up happens under the entry's own lock, not the cache's: an
		// advance of one entry does not hold up lookups of the others.
		switch prep.catchUp(base) {
		case prepAdvanced:
			c.advances.Add(1)
			fallthrough
		case prepCurrent:
			c.hits.Add(1)
			return prep
		}
		c.invalidations.Add(1)
	}
	// Prepare outside the lock: it walks every relation with nulls the plan
	// scans. Concurrent misses on the same key prepare identical state and
	// the last store wins harmlessly.
	prep = PlanFor(q, base, mode, bag).Prepare(base)
	prep.epochs = epochs(base, prep.p)
	c.mu.Lock()
	c.entries[key] = prep
	c.order.Touch(key)
	for len(c.entries) > c.capacity {
		c.remove(c.order.Oldest())
	}
	c.mu.Unlock()
	return prep
}

// recost reports whether the plan still fits db: when a relation it reads
// has moved to another size class since it was costed, the cost model is
// asked again, and the plan carries on — with its prepared state and its
// estimates — when the new one has the same shape. The epochs then record
// the classes it was last checked at.
func (prep *Prepared) recost(db *relation.Database, q algebra.Expr, mode algebra.Mode, bag bool) bool {
	prep.mu.Lock()
	defer prep.mu.Unlock()
	for i, name := range prep.p.root.base().reads.names {
		if epochOf(db, name) != prep.epochs[i] {
			if PlanFor(q, db, mode, bag).shape() != prep.p.shape() {
				return false
			}
			prep.epochs = epochs(db, prep.p)
			break
		}
	}
	return true
}

// epochs returns the statistics epoch of every relation p reads, in the
// order of its read set.
func epochs(db *relation.Database, p *Plan) []uint64 {
	names := p.root.base().reads.names
	out := make([]uint64, len(names))
	for i, name := range names {
		out[i] = epochOf(db, name)
	}
	return out
}

// epochOf returns the statistics epoch of a relation of db (its log₂ size
// class), 0 for an absent one.
func epochOf(db *relation.Database, name string) uint64 {
	if rel := db.Relation(name); rel != nil {
		return rel.StatsEpoch()
	}
	return 0
}

// shape renders what of a plan the cost model can change: every node's
// operator and inputs, without the estimates.
func (p *Plan) shape() string {
	var b strings.Builder
	for _, q := range append([]*Plan{p}, p.subs...) {
		fmt.Fprintf(&b, "root #%d\n", q.root.base().id)
		for _, n := range q.nodes {
			b.WriteString(n.describe())
			for _, c := range children(n) {
				fmt.Fprintf(&b, " #%d", c.base().id)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// remove drops key from the map and the LRU order; caller holds c.mu.
func (c *PrepCache) remove(key string) {
	delete(c.entries, key)
	c.order.Remove(key)
}
