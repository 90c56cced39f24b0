// Package lru provides the small string-keyed recency list backing the
// server-side LRU caches (the prepared-plan cache and the result cache),
// so eviction bookkeeping lives in one place.
package lru

// Order tracks key recency: least recently used first. The linear scans
// are deliberate — the caches using it hold tens to hundreds of keys, far
// below the point where a doubly linked list with a map index would win.
// Not safe for concurrent use; callers hold their own lock.
type Order struct {
	keys []string
}

// Touch moves key to the most-recently-used end, inserting it if absent.
func (o *Order) Touch(key string) {
	for i, k := range o.keys {
		if k == key {
			copy(o.keys[i:], o.keys[i+1:])
			o.keys[len(o.keys)-1] = key
			return
		}
	}
	o.keys = append(o.keys, key)
}

// Remove drops key, if present.
func (o *Order) Remove(key string) {
	for i, k := range o.keys {
		if k == key {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			return
		}
	}
}

// Oldest returns the least recently used key, or "" when empty.
func (o *Order) Oldest() string {
	if len(o.keys) == 0 {
		return ""
	}
	return o.keys[0]
}

// Len returns the number of tracked keys.
func (o *Order) Len() int { return len(o.keys) }
