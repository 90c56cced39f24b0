package plan

import (
	"sync"
	"sync/atomic"

	"incdb/internal/algebra"
	"incdb/internal/lru"
	"incdb/internal/relation"
)

// PrepCache caches Prepared plans across calls so that the frozen parts a
// Prepared accumulates — the root's frozen answer, join tables, consolidated
// barrier and subquery inputs — survive beyond a single oracle invocation,
// along with the row partition and the relevant null ids. An entry is the
// prepared state of the plan under one key of the process-wide plan cache
// (cacheKey: query rendering, mode, semantics, read-relation arities and
// log₂ size classes), guarded by the pins Prepare recorded. A lookup brings
// the entry up to the caller's database (Prepared.catchUp): it serves as it
// stands when no relation its plan reads has changed, it is advanced — the
// appended rows folded into its frozen artifacts — when those relations have
// only gained rows, and it is dropped and prepared afresh otherwise (a
// removal, a replaced relation, more appends than a relation's bounded
// append log remembers, an append that would reclassify a node, any change
// under a plan that reads the active domain). A relation
// that has moved to another size class changes the key: the lookup misses,
// and the plan the cost model picks for the new sizes is prepared afresh and
// replaces the entry for the old classes. Appends only grow relations, so an
// entry is replaced at most once per class a relation crosses.
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
	entries map[string]prepEntry // by cacheKey without the size classes
	order   lru.Order

	hits          atomic.Uint64
	misses        atomic.Uint64
	advances      atomic.Uint64
	invalidations atomic.Uint64
}

// prepEntry is a cached Prepared and the whole cacheKey, size classes
// included, it was prepared under.
type prepEntry struct {
	key  string
	prep *Prepared
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
	return &PrepCache{capacity: capacity, entries: map[string]prepEntry{}}
}

// CacheStats is a snapshot of the cache counters. A hit is a lookup served
// by a cached entry, as it stood or advanced; an advance is a hit whose entry
// first had appended rows folded in; an invalidation is a lookup that found
// an entry it could not advance either (the entry is dropped and prepared
// afresh); a miss is a lookup that found no entry under its key — none at
// all, or one prepared for other size classes, which it replaces.
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
	key, n := cacheKey(q, base, mode, bag)
	c.mu.Lock()
	e, ok := c.entries[key[:n]]
	if ok {
		c.order.Touch(key[:n])
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
	} else {
		// Catching up happens under the entry's own lock, not the cache's: an
		// advance of one entry does not hold up lookups of the others.
		switch res := e.prep.catchUp(base); {
		case res == prepStale:
			c.invalidations.Add(1)
		case e.key != key:
			c.misses.Add(1) // up to date, but prepared for other size classes
		default:
			if res == prepAdvanced {
				c.advances.Add(1)
			}
			c.hits.Add(1)
			return e.prep
		}
	}
	// Prepare outside the lock: it walks every relation with nulls the plan
	// scans. Concurrent misses on the same key prepare identical state and
	// the last store wins harmlessly. The key is PlanFor's, so the plan
	// cache is consulted without rendering it again.
	prep := planCache.get(key, func() *Plan { return compile(q, base, mode, bag) }).Prepare(base)
	c.mu.Lock()
	c.entries[key[:n]] = prepEntry{key, prep}
	c.order.Touch(key[:n])
	for len(c.entries) > c.capacity {
		c.remove(c.order.Oldest())
	}
	c.mu.Unlock()
	return prep
}

// remove drops key from the map and the LRU order; caller holds c.mu.
func (c *PrepCache) remove(key string) {
	delete(c.entries, key)
	c.order.Remove(key)
}
