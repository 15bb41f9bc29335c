package core

import (
	"sync"

	"rankfair/internal/count"
	"rankfair/internal/pattern"
)

// This file is the match-set engine behind every lattice search in the
// package. All detection algorithms share one traversal structure — examine
// a node, read s_D(p) and its top-k count (or exposure, summed from
// per-rank weights the lower bound supplies), descend — and every one of
// them needs only those two numbers per pattern. The engine works in rank
// space over the shared count.Index: a node's match set is
// the ascending list of *rank positions* matching its pattern — the
// intersection of its bound attributes' posting lists. s_D(p) is the list
// length, the count at any k is one binary search (count.PrefixCount), root
// nodes alias the posting lists outright (a warm index starts a search with
// zero setup scans), and every other set is its search-tree parent's set
// filtered on one column. Child generation tallies a split's per-value
// sizes and counts in one count-only pass over the parent's list, and a
// child's list is filtered from the parent's only when the search enters
// that child; the lists live in per-worker scratch arenas instead of
// per-node allocations.
//
// Step-time resumption rebuilds the sets of resumed frontier nodes the same
// way: a walk from the root posting list down the tree path, one column
// filter per level (searcher.filter), straight into the worker's arena.
// Resumed nodes that share a path prefix share its filters.

// matchSet is one node's match representation: all holds the ascending
// rank positions matching the pattern.
type matchSet struct {
	all []int32
}

// unit pairs a search-tree root with its match set: an independent work
// item of the incremental searches' builds.
type unit struct {
	p pattern.Pattern
	m matchSet
}

// engine binds one search run to its rank index. It is read-only during
// the search and shared by every worker; the mutable scratch lives in
// per-worker searchers.
type engine struct {
	in *Input
	ix *count.Index
	// statsOff mirrors Input.DisableStats at engine construction:
	// newSearchStats returns nil under it, which disarms every nil-checked
	// counter increment downstream.
	statsOff bool
}

// newEngine binds a search to the input's attached index, building one
// when none is attached.
func newEngine(in *Input) *engine {
	ix := in.Index
	if ix == nil {
		ix = count.Build(in.Rows, in.Space, in.Ranking)
	}
	return &engine{in: in, ix: ix, statsOff: in.DisableStats}
}

// newSearchStats returns the run's SearchStats accumulator stamped with
// the engine name and fan-out width, or nil when the input disabled stats —
// the nil pointer is what turns every increment into a no-op.
func (e *engine) newSearchStats(workers int) *SearchStats {
	if e.statsOff {
		return nil
	}
	return &SearchStats{Strategy: "index", Workers: workers}
}

// rootUnits returns the search-tree children of the empty pattern — the
// starting frontier of every full build — aliasing the posting lists (zero
// scans, zero allocations beyond the unit headers).
func (e *engine) rootUnits() []unit {
	space := e.in.Space
	total := 0
	for _, card := range space.Cards {
		total += card
	}
	units := make([]unit, 0, total)
	empty := pattern.Empty(space.NumAttrs())
	for a, card := range space.Cards {
		for v := 0; v < card; v++ {
			units = append(units, unit{p: empty.With(a, int32(v)), m: matchSet{all: e.ix.Postings(a, int32(v))}})
		}
	}
	return units
}

// searcher is an engine handle plus per-worker scratch. The incremental
// searches' recursive subtree builds have stack-shaped match-set
// lifetimes, so each worker partitions into a pooled arena with per-node
// mark/release instead of allocating per node.
type searcher struct {
	*engine
	scr *scratch
	// ss receives the engine-shortcut counters (count-only passes, lazy
	// scatters, posting intersections). Nil when stats are disabled; sinks
	// point it at their local accumulator after acquire.
	ss *SearchStats
}

func (e *engine) acquire() searcher {
	return searcher{engine: e, scr: getScratch()}
}

func (sr searcher) close() { putScratch(sr.scr) }

// childStats is one attribute's per-value child statistics. The sizes,
// counts and exposures come from count-only passes over the parent's rank
// list — s_D per value from the full list, the top-k quantities from its
// length-≤k prefix. A child's rank list is filtered from the parent's only
// when the search enters that child, which it does for about one child
// per split; fully pruned or all-frontier levels (the common case under a
// size threshold) never materialize a single child list.
type childStats struct {
	sr searcher
	m  matchSet
	a  int
	// Per-value tallies (arena-backed).
	sD   []int32
	cnt  []int32
	wsum []float64
	// entered records the first at() call, which counts the split as a
	// lazy scatter.
	entered bool
}

// childStats computes the per-value statistics of splitting m at attribute
// a. A non-nil w (the exposure weight of each rank position) additionally
// accumulates per-value exposure over the top-k prefix, in rank order.
func (sr searcher) childStats(m matchSet, a, card, k int, w []float64) childStats {
	cs := childStats{sr: sr, m: m, a: a}
	sr.ss.countOnlyPass()
	col := sr.ix.Column(a)
	cs.sD = sr.scr.ints.allocZero(card)
	cs.cnt = sr.scr.ints.allocZero(card)
	for _, r := range m.all {
		cs.sD[col[r]]++
	}
	cut := count.PrefixCount(m.all, k)
	if w != nil {
		cs.wsum = sr.scr.floats.allocZero(card)
		for _, r := range m.all[:cut] {
			v := col[r]
			cs.cnt[v]++
			cs.wsum[v] += w[r]
		}
	} else {
		for _, r := range m.all[:cut] {
			cs.cnt[col[r]]++
		}
	}
	return cs
}

// size returns s_D of child v.
func (cs *childStats) size(v int) int { return int(cs.sD[v]) }

// at returns child v's match set, filtered from the parent's into the
// worker's arena; it lives until the caller releases the mark it took
// before childStats, so it outlasts the child's subtree.
func (cs *childStats) at(v int) matchSet {
	if !cs.entered {
		cs.entered = true
		cs.sr.ss.lazyScatter()
	}
	return cs.sr.filter(cs.m, cs.a, int32(v))
}

// mark/release bracket a node's arena allocations; release at subtree exit
// returns the partitions and tallies to the worker's pool.
func (sr searcher) mark() arenaMark {
	return arenaMark{i: sr.scr.ints.mark(), f: sr.scr.floats.mark()}
}

func (sr searcher) release(mk arenaMark) {
	sr.scr.ints.release(mk.i)
	sr.scr.floats.release(mk.f)
}

type arenaMark struct{ i, f arenaPos }

// filter returns the entries of m whose row binds v at attribute a: one
// branch-free pass over a's rank column into the worker's arena (the
// caller's mark/release owns the result's lifetime). The pass writes up to
// len(m.all) entries; the unused tail goes back to the arena.
func (sr searcher) filter(m matchSet, a int, v int32) matchSet {
	col := sr.ix.Column(a)
	out := sr.scr.ints.alloc(len(m.all))
	n := 0
	for _, r := range m.all {
		out[n] = r
		// Codes are non-negative, so col[r]^v is 0 on a match and
		// positive otherwise: uint32(x-1)>>31 is the match flag.
		n += int(uint32((col[r]^v)-1) >> 31)
	}
	sr.scr.ints.trim(len(m.all) - n)
	return matchSet{all: out[:n:n]}
}

// scratch is the per-worker allocation pool: the match-set and tally
// arenas, and the per-k walk's candidate slab and headers.
type scratch struct {
	ints   arena[int32]
	floats arena[float64]
	slab   []int32
	cands  []pattern.Pattern
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.ints.reset()
	s.floats.reset()
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// arena is a chunked stack allocator. Blocks are never reallocated, so
// outstanding slices stay valid across later allocations; mark/release
// rewinds in LIFO order, matching the recursion structure of the subtree
// builds. A cancellation unwind may skip releases — reset at the next
// acquire reclaims everything.
type arena[T any] struct {
	blocks [][]T
	bi     int // current block index
	off    int // next free offset in blocks[bi]
}

// arenaBlock is the minimum block size in elements; single allocations
// larger than this get a dedicated block.
const arenaBlock = 1 << 14

// arenaPos is a rewind point inside one arena.
type arenaPos struct{ bi, off int }

func (ar *arena[T]) mark() arenaPos { return arenaPos{bi: ar.bi, off: ar.off} }

func (ar *arena[T]) release(mk arenaPos) { ar.bi, ar.off = mk.bi, mk.off }

func (ar *arena[T]) reset() { ar.bi, ar.off = 0, 0 }

// trim returns the last n elements of the latest allocation to the arena.
func (ar *arena[T]) trim(n int) { ar.off -= n }

func (ar *arena[T]) alloc(n int) []T {
	for {
		if ar.bi < len(ar.blocks) {
			if b := ar.blocks[ar.bi]; ar.off+n <= len(b) {
				out := b[ar.off : ar.off+n]
				ar.off += n
				return out
			}
			// No room in this block: advance. The skipped tail is
			// reclaimed by release/reset, never handed out twice.
			ar.bi++
			ar.off = 0
			continue
		}
		size := arenaBlock
		if n > size {
			size = n
		}
		ar.blocks = append(ar.blocks, make([]T, size))
	}
}

// allocZero returns a zeroed block (arena memory is reused, so tallies
// must clear before accumulating).
func (ar *arena[T]) allocZero(n int) []T {
	out := ar.alloc(n)
	var zero T
	for i := range out {
		out[i] = zero
	}
	return out
}
