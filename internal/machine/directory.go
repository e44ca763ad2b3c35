package machine

import "rwsfs/internal/mem"

// The block directory is the machine's per-block coherence record. For each
// block it holds:
//
//   - a sharer bitset: bit p set ⟺ the block is resident in processor p's
//     cache (kept in lockstep with the cache.Cache residency sets);
//   - a lost bitset: bit p set ⟺ processor p's copy was invalidated by a
//     remote write and not since re-fetched — the pending block misses;
//   - busyUntil: the tick until which the block's fetch channel is occupied
//     (FIFO arbitration serialization);
//   - transfers: how many times the block was fetched into some cache,
//     Definition 4.1's per-block move count.
//
// Block IDs come from mem.Allocator, a bump allocator, so they are dense
// from zero: the directory is a paged dense array (no hashing), with pages
// materialized lazily on first touch. All steady-state operations are
// allocation-free, and a write's invalidation broadcast walks only the
// actual sharer bits instead of scanning all P caches.
const dirPageShift = 8

const dirPageLen = 1 << dirPageShift

// dirPage holds the records of dirPageLen consecutive blocks. The two
// bitsets are stored flat: entry i's words are bits[i*stride : i*stride+w]
// (sharers) and bits[i*stride+w : i*stride+2w] (lost), with stride = 2w.
// owner is the block's provenance — the processor that last fetched or
// wrote it, -1 for none — and is materialized only on non-flat topologies,
// where the machine consults it to price cross-socket transfers.
type dirPage struct {
	busyUntil []Tick
	transfers []int64
	bits      []uint64
	owner     []int16
	// gen is the directory generation this page's contents belong to. Reset
	// invalidates every page by bumping the directory generation; a stale
	// page is re-zeroed lazily when next touched and reads as absent until
	// then, so resetting is O(1) instead of O(materialized arena).
	gen uint32
}

// dirArenaPages sets how many pages' backing storage one arena chunk holds:
// page materialization costs 1/dirArenaPages-th of an allocation per slice
// instead of four. Kept small so a run's last chunk wastes little zeroed
// memory — allocation *bytes* drive GC frequency as much as counts.
const dirArenaPages = 4

// directory is the paged per-block coherence directory.
type directory struct {
	w          int // uint64 words per bitset: ceil(P/64)
	trackOwner bool
	gen        uint32
	pages      []*dirPage

	// Arena chunks that page materialization carves slices from.
	pageSlab   []dirPage
	tickArena  []Tick
	cntArena   []int64
	bitsArena  []uint64
	ownerArena []int16
}

func newDirectory(p int) *directory {
	return &directory{w: (p + 63) / 64}
}

// reset prepares the directory for another run on p processors. When the
// bitset width is unchanged the materialized pages are kept and invalidated
// by the generation bump (revalidated lazily, see dirPage.gen); a width
// change makes the flat bits layout incompatible, so the pages are dropped
// and rebuilt on demand (the leftover arena chunks are stride-free and stay).
func (d *directory) reset(p int, trackOwner bool) {
	if w := (p + 63) / 64; w != d.w {
		d.w = w
		d.pages = nil
	}
	d.trackOwner = trackOwner
	d.gen++
}

// revalidate re-zeroes a page left over from before the last reset, making
// it current. Owner storage is materialized here if owner tracking turned on
// since the page was built.
func (d *directory) revalidate(page *dirPage) {
	clear(page.busyUntil)
	clear(page.transfers)
	clear(page.bits)
	if d.trackOwner {
		if page.owner == nil {
			if len(d.ownerArena) < dirPageLen {
				d.ownerArena = make([]int16, dirArenaPages*dirPageLen)
			}
			page.owner, d.ownerArena = d.ownerArena[:dirPageLen:dirPageLen], d.ownerArena[dirPageLen:]
		}
		for i := range page.owner {
			page.owner[i] = -1
		}
	}
	page.gen = d.gen
}

// newPage carves one zeroed page from the arenas.
func (d *directory) newPage() *dirPage {
	if len(d.pageSlab) == 0 {
		d.pageSlab = make([]dirPage, dirArenaPages)
	}
	page := &d.pageSlab[0]
	d.pageSlab = d.pageSlab[1:]
	if len(d.tickArena) < dirPageLen {
		d.tickArena = make([]Tick, dirArenaPages*dirPageLen)
	}
	page.busyUntil, d.tickArena = d.tickArena[:dirPageLen:dirPageLen], d.tickArena[dirPageLen:]
	if len(d.cntArena) < dirPageLen {
		d.cntArena = make([]int64, dirArenaPages*dirPageLen)
	}
	page.transfers, d.cntArena = d.cntArena[:dirPageLen:dirPageLen], d.cntArena[dirPageLen:]
	bitsLen := dirPageLen * 2 * d.w
	if len(d.bitsArena) < bitsLen {
		d.bitsArena = make([]uint64, dirArenaPages*bitsLen)
	}
	page.bits, d.bitsArena = d.bitsArena[:bitsLen:bitsLen], d.bitsArena[bitsLen:]
	if d.trackOwner {
		if len(d.ownerArena) < dirPageLen {
			d.ownerArena = make([]int16, dirArenaPages*dirPageLen)
		}
		page.owner, d.ownerArena = d.ownerArena[:dirPageLen:dirPageLen], d.ownerArena[dirPageLen:]
		for i := range page.owner {
			page.owner[i] = -1
		}
	}
	page.gen = d.gen
	return page
}

// dirRef is a resolved handle on one block's record.
type dirRef struct {
	pg *dirPage
	i  int // entry index within the page
	w  int
}

// entry resolves bid, materializing its page.
func (d *directory) entry(bid mem.BlockID) dirRef {
	pg := uint64(bid) >> dirPageShift
	if pg >= uint64(len(d.pages)) {
		// Geometric growth, like the cache index: new stacks keep raising
		// the highest block ID.
		grown := make([]*dirPage, max(pg+1, 2*uint64(len(d.pages))))
		copy(grown, d.pages)
		d.pages = grown
	}
	page := d.pages[pg]
	if page == nil {
		page = d.newPage()
		d.pages[pg] = page
	} else if page.gen != d.gen {
		d.revalidate(page)
	}
	return dirRef{pg: page, i: int(uint64(bid) & (dirPageLen - 1)), w: d.w}
}

// peek resolves bid without materializing; pg is nil if the block was never
// recorded since the last reset (stale-generation pages read as absent).
func (d *directory) peek(bid mem.BlockID) dirRef {
	pg := uint64(bid) >> dirPageShift
	if pg >= uint64(len(d.pages)) || d.pages[pg] == nil || d.pages[pg].gen != d.gen {
		return dirRef{}
	}
	return dirRef{pg: d.pages[pg], i: int(uint64(bid) & (dirPageLen - 1)), w: d.w}
}

func (r dirRef) sharers() []uint64 { return r.pg.bits[r.i*2*r.w : r.i*2*r.w+r.w : r.i*2*r.w+r.w] }
func (r dirRef) lost() []uint64    { return r.pg.bits[r.i*2*r.w+r.w : (r.i+1)*2*r.w] }

func (r dirRef) setSharer(p int)   { r.sharers()[p>>6] |= 1 << (uint(p) & 63) }
func (r dirRef) clearSharer(p int) { r.sharers()[p>>6] &^= 1 << (uint(p) & 63) }

func (r dirRef) lostHas(p int) bool { return r.lost()[p>>6]&(1<<(uint(p)&63)) != 0 }
func (r dirRef) clearLost(p int)    { r.lost()[p>>6] &^= 1 << (uint(p) & 63) }

func (r dirRef) sharerHas(p int) bool { return r.sharers()[p>>6]&(1<<(uint(p)&63)) != 0 }

// clearSharerOf clears p's sharer bit for bid if the block has a record.
// Used on natural eviction, where the record always exists (the victim was
// fetched at least once).
func (d *directory) clearSharerOf(bid mem.BlockID, p int) {
	if r := d.peek(bid); r.pg != nil {
		r.clearSharer(p)
	}
}

// forEachTransferred calls fn(bid, n) for every block with a nonzero
// transfer count this run, in increasing block order (stale-generation
// pages hold a previous run's counts and are skipped).
func (d *directory) forEachTransferred(fn func(bid mem.BlockID, n int64)) {
	for pgi, page := range d.pages {
		if page == nil || page.gen != d.gen {
			continue
		}
		base := mem.BlockID(pgi << dirPageShift)
		for i, n := range page.transfers {
			if n != 0 {
				fn(base+mem.BlockID(i), n)
			}
		}
	}
}
