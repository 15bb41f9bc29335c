package core

import (
	"sync"

	"rankfair/internal/pattern"
)

// The breadth-first ITERTD baselines keep every frontier entry's match
// set alive from production (the parent's expansion) until consumption
// (the entry's own head-of-queue visit). That lifetime is FIFO-shaped —
// entries are consumed in exactly the order they were produced — which a
// per-node heap allocation cannot exploit: the old appendChildren path
// allocated a fresh flat block, offset table and pattern per child and
// left the reclamation to the garbage collector. This file replaces it
// with a ring arena keyed on queue consumption: child match sets are
// carved out of sequence-numbered blocks, and consuming an entry frees
// every block older than the entry's production batch back onto a
// freelist. A steady-state search — and, through pooling, a whole per-k
// staircase of searches — recycles a handful of blocks regardless of how
// wide the frontier gets.

// bfsUnit is one frontier entry of the breadth-first baselines. The
// pattern is carried in factored form — the parent's materialized pattern
// plus the (attribute, value) pair this child binds — and only assembled
// by pat() for entries the search actually reports or expands: children
// pruned by the size threshold never build a Pattern at all, which on
// wide lattices is the majority of the queue.
type bfsUnit struct {
	pp   pattern.Pattern
	a, v int32
	m    matchSet
	// freeSeq is the ring sequence recorded when this entry's batch was
	// produced: every ring block with a smaller sequence holds match sets
	// of entries that precede this one in the queue, so once this entry is
	// consumed those blocks are dead and pop reclaims them.
	freeSeq int64
}

// pat materializes the entry's pattern out of the traversal's pattern
// arena. Search-tree children always bind an attribute past the parent's
// maximum, so the entry's own a doubles as its MaxAttrIdx.
func (q *bfs) pat(u *bfsUnit) pattern.Pattern { return q.pats.with(u.pp, int(u.a), u.v) }

// patChunk is the pattern arena's chunk size in elements.
const patChunk = 4096

// patArena bump-allocates the materialized patterns of one traversal.
// Unlike the ring, carves are never reclaimed mid-search: materialized
// patterns escape into results and child entries alias them as deferred
// prefixes, so the arena only ever appends and the whole buffer is
// dropped — not pooled — when the traversal closes.
type patArena struct {
	buf []int32
}

// with carves a copy of p with attr bound to v.
func (a *patArena) with(p pattern.Pattern, attr int, v int32) pattern.Pattern {
	n := len(p)
	if len(a.buf)+n > cap(a.buf) {
		sz := patChunk
		if n > sz {
			sz = n
		}
		a.buf = make([]int32, 0, sz)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	out := a.buf[off : off+n : off+n]
	copy(out, p)
	out[attr] = v
	return pattern.Pattern(out)
}

// bfsBlock is the standard ring block size in elements; larger single
// carves get a dedicated jumbo block that is dropped rather than pooled
// on release, so one huge root partition cannot pin its footprint for the
// rest of the sweep.
const bfsBlock = 1 << 14

// bfsRing is the FIFO block arena. Blocks carry absolute sequence
// numbers (the first block opened is 1, so sequence 0 doubles as the
// "nothing to free" sentinel); releases arrive in consumption order with
// non-decreasing sequences and free a prefix of the live block list.
type bfsRing struct {
	// blocks holds the live blocks oldest-first; blocks[i] has sequence
	// allocSeq - len(blocks) + 1 + i.
	blocks   [][]int32
	allocSeq int64     // sequence of the newest block; 0 before the first open
	off      int       // next free offset in the newest block
	free     [][]int32 // reclaimed standard-size blocks
}

// alloc carves an n-element slice out of the newest block, opening a new
// block (freelist first) when it does not fit.
func (r *bfsRing) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	if m := len(r.blocks); m > 0 {
		if b := r.blocks[m-1]; r.off+n <= len(b) {
			out := b[r.off : r.off+n : r.off+n]
			r.off += n
			return out
		}
	}
	var b []int32
	switch {
	case n > bfsBlock:
		b = make([]int32, n)
	case len(r.free) > 0:
		b = r.free[len(r.free)-1]
		r.free[len(r.free)-1] = nil
		r.free = r.free[:len(r.free)-1]
	default:
		b = make([]int32, bfsBlock)
	}
	r.blocks = append(r.blocks, b)
	r.allocSeq++
	r.off = n
	return b[:n:n]
}

// release reclaims every block with sequence < seq. The newest block is
// never in the prefix: entries record a batch sequence no larger than the
// then-newest block's, and allocSeq only grows afterwards.
func (r *bfsRing) release(seq int64) {
	headSeq := r.allocSeq - int64(len(r.blocks)) + 1
	drop := int(seq - headSeq)
	if drop <= 0 {
		return
	}
	for i := 0; i < drop; i++ {
		if b := r.blocks[i]; len(b) == bfsBlock {
			r.free = append(r.free, b)
		}
		r.blocks[i] = nil
	}
	r.blocks = r.blocks[:copy(r.blocks, r.blocks[drop:])]
}

// reset moves every live block to the freelist, readying the ring for the
// next search.
func (r *bfsRing) reset() {
	for i, b := range r.blocks {
		if len(b) == bfsBlock {
			r.free = append(r.free, b)
		}
		r.blocks[i] = nil
	}
	r.blocks = r.blocks[:0]
	r.allocSeq = 0
	r.off = 0
}

// bfs is one breadth-first traversal's state: the FIFO frontier, the ring
// arena backing its match sets, and counting-sort scratch. Instances are
// pooled; the per-k baselines acquire one per search, so a staircase
// sweep reuses the same blocks, queue array and scratch for every k.
type bfs struct {
	eng   *engine
	queue []bfsUnit
	head  int
	ring  bfsRing
	pats  patArena
	// Counting-sort scratch: per-value counts and scatter cursors.
	cnt, cur []int32
}

var bfsPool = sync.Pool{New: func() any { return new(bfs) }}

// newBFS acquires a pooled traversal and seeds the root frontier — the
// search-tree children of the empty pattern, in the same (attribute,
// value) order as rootUnits — aliasing the posting lists, so the root
// costs no ring traffic at all. Root entries carry freeSeq 0: nothing
// precedes them.
func (e *engine) newBFS() *bfs {
	q := bfsPool.Get().(*bfs)
	q.eng = e
	empty := pattern.Empty(e.in.Space.NumAttrs())
	for a, card := range e.in.Space.Cards {
		for v := 0; v < card; v++ {
			q.queue = append(q.queue, bfsUnit{pp: empty, a: int32(a), v: int32(v),
				m: matchSet{all: e.ix.Postings(a, int32(v))}})
		}
	}
	return q
}

// more reports whether frontier entries remain.
func (q *bfs) more() bool { return q.head < len(q.queue) }

// pop consumes the next frontier entry, reclaiming the ring prefix its
// batch sequence frees and compacting the queue's consumed head so a
// draining frontier releases its slots (amortized O(1) per entry).
func (q *bfs) pop() bfsUnit {
	u := q.queue[q.head]
	q.queue[q.head] = bfsUnit{}
	q.head++
	if q.head == len(q.queue) {
		q.queue = q.queue[:0]
		q.head = 0
	} else if q.head >= 1024 && q.head*2 >= len(q.queue) {
		n := copy(q.queue, q.queue[q.head:])
		tail := q.queue[n:]
		for i := range tail {
			tail[i] = bfsUnit{}
		}
		q.queue = q.queue[:n]
		q.head = 0
	}
	q.ring.release(u.freeSeq)
	return u
}

// expand enqueues u's search-tree children (Definition 4.1), partitioning
// the parent's match set per attribute directly into the ring. p is u's
// materialized pattern; children carry it as their deferred-pattern
// prefix. All children of one parent share one batch sequence — the
// newest block's sequence before the expansion's first carve — so
// consuming any of them frees exactly the blocks written before this
// parent came off the queue.
func (q *bfs) expand(u *bfsUnit, p pattern.Pattern) {
	e := q.eng
	space := e.in.Space
	n := space.NumAttrs()
	batch := q.ring.allocSeq
	for a := int(u.a) + 1; a < n; a++ {
		card := space.Cards[a]
		col := e.ix.Column(a)
		cnt := countBuf(&q.cnt, card)
		for _, r := range u.m.all {
			cnt[col[r]]++
		}
		flat := q.ring.alloc(len(u.m.all))
		cur := cursorBuf(&q.cur, card)
		off := int32(0)
		for v := 0; v < card; v++ {
			cur[v] = off
			off += cnt[v]
		}
		for _, r := range u.m.all {
			v := col[r]
			flat[cur[v]] = r
			cur[v]++
		}
		for v := 0; v < card; v++ {
			end := cur[v]
			q.queue = append(q.queue, bfsUnit{pp: p, a: int32(a), v: int32(v),
				m: matchSet{all: flat[end-cnt[v] : end : end]}, freeSeq: batch})
		}
	}
}

// close returns the traversal to the pool: leftover entries of a canceled
// search are cleared and the ring's blocks move to its freelist, so the
// next search starts warm.
func (q *bfs) close() {
	for i := q.head; i < len(q.queue); i++ {
		q.queue[i] = bfsUnit{}
	}
	q.queue = q.queue[:0]
	q.head = 0
	q.ring.reset()
	q.pats = patArena{}
	q.eng = nil
	bfsPool.Put(q)
}

// countBuf returns a zeroed width-card counting buffer backed by *buf,
// growing it as needed.
func countBuf(buf *[]int32, card int) []int32 {
	b := *buf
	if cap(b) < card {
		b = make([]int32, card)
		*buf = b
	}
	b = b[:card]
	for i := range b {
		b[i] = 0
	}
	return b
}

// cursorBuf returns an uninitialized width-card cursor buffer backed by
// *buf.
func cursorBuf(buf *[]int32, card int) []int32 {
	b := *buf
	if cap(b) < card {
		b = make([]int32, card)
		*buf = b
	}
	return b[:card]
}
