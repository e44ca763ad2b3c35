package serve

import (
	"container/list"
	"sync"
)

// resultCache is a size-bounded LRU over completed payloads, keyed on the
// request's canonical Config hash. Engine determinism (same normalized
// request ⇒ byte-equal result, pinned by the rws reuse differentials) is
// what makes serving from this cache correct; the serve cache tests assert
// the byte equality end to end.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key string
	p   *payload
}

func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached payload for key, refreshing its recency.
func (c *resultCache) Get(key string) (*payload, bool) {
	if c.cap == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).p, true
}

// Add stores p under key, evicting the least recently used entry when full.
// The stored payload is shared by reference and must never be mutated after
// insertion (responses copy the per-request fields, not the payload).
func (c *resultCache) Add(key string, p *payload) { c.add(key, p, true) }

// AddIfSpace stores p under key only when doing so evicts nothing: either
// the key is already present (refreshed in place) or the cache has free
// capacity. Warm-up paths (journal replay, peer corpus import) use it so a
// corpus larger than the cache stops inserting at capacity instead of
// churning the entire corpus through the LRU and evicting earlier rows.
func (c *resultCache) AddIfSpace(key string, p *payload) bool { return c.add(key, p, false) }

// add stores p under key, refreshing a key already present in place. A full
// cache makes room by evicting its least recently used entry when evict is
// set and refuses the insert (false) otherwise.
func (c *resultCache) add(key string, p *payload, evict bool) bool {
	if c.cap == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).p = p
		return true
	}
	if c.order.Len() >= c.cap {
		if !evict {
			return false
		}
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, p: p})
	return true
}

// Snapshot returns the cached payloads, most recently used first. Payloads
// are shared by reference and immutable after insertion, so the caller may
// read them without further locking.
func (c *resultCache) Snapshot() []*payload {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*payload, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).p)
	}
	return out
}

// Len reports the number of cached payloads.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
