// Package cache implements the per-processor private cache of the machine
// model: a fully-associative set of M/B blocks with LRU replacement.
//
// The cache stores only block identities (the simulated values live in
// mem.Memory); the machine layer on top of it decides coherence actions and
// classifies misses. Fully-associative LRU matches the ideal-cache model the
// paper's sequential cache-complexity bounds (Q) assume.
//
// The implementation is an intrusive array-backed LRU built for the
// simulator's hot path: recency links are prev/next indices into a flat node
// slice (one circular list threaded through a sentinel), and the block→node
// index is a paged dense array rather than a hash map. Block IDs come from
// mem.Allocator, a bump allocator, so they are dense from zero: a paged
// array indexed by BlockID resolves a lookup with two loads and no hashing,
// and pages materialize lazily so sparse residency (a cache that only ever
// holds a task's stack blocks) stays cheap. Steady-state Touch/Insert/Remove
// perform zero heap allocations.
package cache

import (
	"fmt"

	"rwsfs/internal/mem"
)

// idxPageShift sets the dense-index page size: 2^idxPageShift block IDs per
// page (256 entries = 1 KiB per materialized page — execution-stack regions
// cluster their touched blocks, so small pages waste little zeroed memory).
// Pages are carved from an arena chunk covering idxArenaPages pages, so
// materialization costs a fraction of an allocation.
const idxPageShift = 8

const idxPageLen = 1 << idxPageShift

// idxArenaPages sets how many pages one arena chunk backs; small, so the
// last chunk of a short run wastes little zeroed memory.
const idxArenaPages = 8

// node is one LRU list entry. Index 0 is the sentinel of the circular
// recency list (next = MRU, prev = LRU); indices 1..capacity are blocks.
// Free nodes are chained through next.
type node struct {
	prev, next int32
	bid        mem.BlockID
}

// Cache is a fully-associative LRU cache over block identities.
type Cache struct {
	capacity int
	size     int
	nodes    []node // len capacity+1; nodes[0] is the sentinel
	free     int32  // head of the free-node chain; 0 when exhausted
	// index maps BlockID → node index + paged lazily; entry 0 means absent.
	// A page's entries are only meaningful while pageGen matches gen: Reset
	// invalidates the whole index by bumping gen, and a stale page is
	// re-zeroed lazily when next touched, so resetting costs O(capacity)
	// rather than O(materialized index).
	index   [][]int32
	pageGen []uint32
	gen     uint32
	// idxArena is the chunk new index pages are carved from.
	idxArena []int32
}

// New returns a cache holding at most capacity blocks.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d", capacity))
	}
	c := &Cache{
		capacity: capacity,
		nodes:    make([]node, capacity+1),
	}
	c.reset()
	return c
}

// Reset empties the cache for another run, adopting a (possibly different)
// capacity. The recency nodes are rebuilt and the block index is invalidated
// in O(1) by bumping the index generation; materialized index pages are kept
// and lazily re-zeroed on first touch, so a reused cache allocates nothing
// in steady state.
func (c *Cache) Reset(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d", capacity))
	}
	if capacity != c.capacity {
		c.capacity = capacity
		if cap(c.nodes) >= capacity+1 {
			c.nodes = c.nodes[:capacity+1]
		} else {
			c.nodes = make([]node, capacity+1)
		}
	}
	c.reset()
	c.gen++
}

// reset empties the recency list and rebuilds the free chain 1→2→…→capacity.
func (c *Cache) reset() {
	c.nodes[0].prev, c.nodes[0].next = 0, 0
	for i := 1; i <= c.capacity; i++ {
		c.nodes[i].next = int32(i) + 1
	}
	c.nodes[c.capacity].next = 0
	c.free = 1
	c.size = 0
}

// lookup returns the node index of b, or 0 if b is not resident. A page left
// over from before the last Reset (stale generation) reads as absent.
func (c *Cache) lookup(b mem.BlockID) int32 {
	pg := uint64(b) >> idxPageShift
	if pg >= uint64(len(c.index)) || c.index[pg] == nil || c.pageGen[pg] != c.gen {
		return 0
	}
	return c.index[pg][uint64(b)&(idxPageLen-1)]
}

// slot returns the index cell for b, materializing its page — or, after a
// Reset, re-zeroing a stale page in place and revalidating its generation.
func (c *Cache) slot(b mem.BlockID) *int32 {
	pg := uint64(b) >> idxPageShift
	if pg >= uint64(len(c.index)) {
		// Grow geometrically: stolen tasks' stacks land on ever higher
		// block IDs, and a page-at-a-time index regrew on each new page.
		n := max(pg+1, 2*uint64(len(c.index)))
		grown := make([][]int32, n)
		copy(grown, c.index)
		c.index = grown
		grownGen := make([]uint32, n)
		copy(grownGen, c.pageGen)
		c.pageGen = grownGen
	}
	switch {
	case c.index[pg] == nil:
		if len(c.idxArena) < idxPageLen {
			c.idxArena = make([]int32, idxArenaPages*idxPageLen)
		}
		c.index[pg], c.idxArena = c.idxArena[:idxPageLen:idxPageLen], c.idxArena[idxPageLen:]
		c.pageGen[pg] = c.gen
	case c.pageGen[pg] != c.gen:
		clear(c.index[pg])
		c.pageGen[pg] = c.gen
	}
	return &c.index[pg][uint64(b)&(idxPageLen-1)]
}

// moveToFront relinks node n as most-recently-used.
func (c *Cache) moveToFront(n int32) {
	nd := &c.nodes[n]
	if c.nodes[0].next == n {
		return
	}
	// Unlink.
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
	// Relink after the sentinel.
	first := c.nodes[0].next
	nd.prev, nd.next = 0, first
	c.nodes[first].prev = n
	c.nodes[0].next = n
}

// pushFront links a detached node n as most-recently-used.
func (c *Cache) pushFront(n int32) {
	first := c.nodes[0].next
	nd := &c.nodes[n]
	nd.prev, nd.next = 0, first
	c.nodes[first].prev = n
	c.nodes[0].next = n
}

// unlink detaches node n from the recency list.
func (c *Cache) unlink(n int32) {
	nd := &c.nodes[n]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

// Capacity reports the maximum number of resident blocks (M/B).
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the current number of resident blocks.
func (c *Cache) Len() int { return c.size }

// Contains reports whether block b is resident.
func (c *Cache) Contains(b mem.BlockID) bool { return c.lookup(b) != 0 }

// Touch marks block b most-recently-used. It reports whether b was resident.
func (c *Cache) Touch(b mem.BlockID) bool {
	n := c.lookup(b)
	if n == 0 {
		return false
	}
	c.moveToFront(n)
	return true
}

// Insert makes block b resident and most-recently-used. If the cache was
// full, the least-recently-used block is evicted and returned with
// evicted=true. Inserting an already-resident block just touches it.
func (c *Cache) Insert(b mem.BlockID) (victim mem.BlockID, evicted bool) {
	if n := c.lookup(b); n != 0 {
		c.moveToFront(n)
		return 0, false
	}
	var n int32
	if c.size >= c.capacity {
		// Reuse the LRU node in place: unlink it, clear its index entry.
		n = c.nodes[0].prev
		victim = c.nodes[n].bid
		c.unlink(n)
		*c.slot(victim) = 0
		evicted = true
	} else {
		n = c.free
		c.free = c.nodes[n].next
		c.size++
	}
	c.nodes[n].bid = b
	c.pushFront(n)
	*c.slot(b) = n
	return victim, evicted
}

// Remove drops block b (an invalidation). It reports whether b was resident.
func (c *Cache) Remove(b mem.BlockID) bool {
	n := c.lookup(b)
	if n == 0 {
		return false
	}
	c.unlink(n)
	*c.slot(b) = 0
	c.nodes[n].next = c.free
	c.free = n
	c.size--
	return true
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		*c.slot(c.nodes[n].bid) = 0
	}
	c.reset()
}

// Resident returns the resident blocks in MRU-to-LRU order. Intended for
// tests and debugging.
func (c *Cache) Resident() []mem.BlockID {
	out := make([]mem.BlockID, 0, c.size)
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		out = append(out, c.nodes[n].bid)
	}
	return out
}
