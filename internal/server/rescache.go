package server

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"incdb/internal/api"
	"incdb/internal/lru"
	"incdb/internal/store"
)

// resultCache memoizes whole query results per session, keyed by the raw
// query text, evaluation procedure and semantics knobs. It only ever holds
// answers for the session's present state: every lookup and every put runs
// under the session read lock of the request, and every mutation, which
// holds the write lock, drops all entries (session.mutate). A byte-identical
// repeated query against an unchanged database is answered without touching
// the planner or the oracles at all. An entry is the answer's encoded
// "results" array (api.AppendResults), so a hit copies bytes and renders
// nothing.
type resultCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	order   lru.Order

	hits   atomic.Uint64
	misses atomic.Uint64
}

// defaultResultCacheCap is every session's result cache capacity.
const defaultResultCacheCap = 256

func newResultCache() *resultCache {
	return &resultCache{entries: map[string][]byte{}}
}

// resultKey builds the cache key for one request.
func resultKey(req *api.QueryRequest, proc string) string {
	var b strings.Builder
	b.WriteString(req.Query)
	b.WriteByte('|')
	b.WriteString(proc)
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(req.Bag))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(req.MaxWorlds))
	return b.String()
}

func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	results, ok := c.entries[key]
	if ok {
		c.order.Touch(key)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return results, ok
}

func (c *resultCache) put(key string, results []byte) {
	c.mu.Lock()
	c.entries[key] = results
	c.order.Touch(key)
	for len(c.entries) > defaultResultCacheCap {
		oldest := c.order.Oldest()
		delete(c.entries, oldest)
		c.order.Remove(oldest)
	}
	c.mu.Unlock()
}

// clear drops every entry; the hit and miss counters keep counting.
func (c *resultCache) clear() {
	c.mu.Lock()
	clear(c.entries)
	c.order = lru.Order{}
	c.mu.Unlock()
}

func (c *resultCache) stats() api.ResultCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return api.ResultCacheStats{Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// warmSet tracks the session's recently used prepared-plan warm keys —
// (query, procedure, semantics) triples — deduplicated, most recently used
// last, capped. Snapshots persist it so recovery can re-prepare the
// working set before the first request arrives.
type warmSet struct {
	mu   sync.Mutex
	keys []store.WarmKey
}

// warmSetCap bounds how many keys a snapshot carries.
const warmSetCap = 32

func (ws *warmSet) record(k store.WarmKey) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for i, have := range ws.keys {
		if have == k {
			copy(ws.keys[i:], ws.keys[i+1:])
			ws.keys[len(ws.keys)-1] = k
			return
		}
	}
	ws.keys = append(ws.keys, k)
	if len(ws.keys) > warmSetCap {
		ws.keys = append(ws.keys[:0], ws.keys[len(ws.keys)-warmSetCap:]...)
	}
}

func (ws *warmSet) snapshot() []store.WarmKey {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return append([]store.WarmKey(nil), ws.keys...)
}
