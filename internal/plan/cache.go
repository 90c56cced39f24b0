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
// along with the row partition and the relevant null ids. Entries
// are keyed by (query rendering, mode, semantics, read-relation arities),
// i.e. the same key the process-wide plan cache uses, and guarded by the
// version vector Prepare recorded: a lookup revalidates the guard against
// the caller's database, so an entry is invalidated exactly when a relation
// its plan reads has mutated (or been replaced) since Prepare ran.
//
// All methods are safe for concurrent use, and the Prepared values handed
// out are themselves safe for concurrent execution — a server can share one
// PrepCache per session across request goroutines, provided mutations of
// the underlying database are externally excluded from running queries (the
// usual reader/writer discipline; the cache itself never mutates the
// database). A nil *PrepCache is valid everywhere one is accepted and
// simply prepares afresh on every call.
type PrepCache struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*Prepared
	order   lru.Order

	hits          atomic.Uint64
	misses        atomic.Uint64
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

// CacheStats is a snapshot of the cache counters. An invalidation is a
// lookup that found an entry whose version guard failed (the entry is
// dropped and re-prepared); a miss is a lookup that found no entry at all.
type CacheStats struct {
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
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
		Invalidations: c.invalidations.Load(),
	}
}

// Get returns a Prepared for q against base, reusing a cached one when its
// version guard still holds, and preparing (and caching) a fresh one
// otherwise. A nil receiver prepares afresh without caching.
func (c *PrepCache) Get(base *relation.Database, q algebra.Expr, mode algebra.Mode, bag bool) *Prepared {
	if c == nil {
		return PlanFor(q, base, mode, bag).Prepare(base)
	}
	key := cacheKey(q, base, mode, bag, true)
	c.mu.Lock()
	if prep, ok := c.entries[key]; ok {
		if prep.ValidFor(base) {
			c.order.Touch(key)
			c.mu.Unlock()
			c.hits.Add(1)
			return prep
		}
		c.remove(key)
		c.mu.Unlock()
		c.invalidations.Add(1)
	} else {
		c.mu.Unlock()
		c.misses.Add(1)
	}
	// Prepare outside the lock: it walks every relation with nulls the plan
	// scans. Concurrent misses on the same key prepare identical state and
	// the last store wins harmlessly.
	prep := PlanFor(q, base, mode, bag).Prepare(base)
	c.mu.Lock()
	c.entries[key] = prep
	c.order.Touch(key)
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
