package core

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"

	"rankfair/internal/pattern"
)

// domFrontier maintains the Res/DRes split of the biased frontier across
// k. The incremental search carries the frontier from k to k+1 and flips
// only the patterns whose bias status changed; the frontier buffers those
// flips and settle() applies them as one sorted delta, so the per-k cost
// follows the flip set and the members whose status it can change, not a
// re-sort and re-scan of the whole frontier.
//
// Correctness rests on an order-independence property of the split. A
// member p is dominated iff some *accepted* (itself non-dominated) member
// is a proper subset of it — but over a fixed member set that is
// equivalent to "some member, accepted or not, is a proper subset of p":
// if any member q ⊊ p exists, pick a ⊂-minimal one; minimality means no
// member is a proper subset of q, so q is accepted and witnesses p's
// domination (every proper subset has strictly fewer bound attributes, so
// the induction over generality levels is well-founded). The split is
// therefore a pure function of the member set, and a settle only revisits
// the members whose status the delta can change:
//
//   - an added member is dominated iff an accepted member of a lower level
//     is a proper subset of it;
//   - every dominated member records a witness (one member proving its
//     domination — any proper subset serves); a dominated survivor whose
//     witness left is an orphan and rescans like an add;
//   - a previously accepted survivor had no member below it, so only an
//     add can dominate it now, and by the minimality argument an accepted
//     add will: it scans the lower-level accepted adds only;
//   - a dominated survivor whose witness stayed is not touched.
//
// settle walks the levels in ascending generality, so the split of every
// lower level is final when a level scans it; the scans within one level
// are independent and fan out over the worker pool. The first settle runs
// the same path from an empty member set, with every member an add.
//
// Members are kept sorted by (bound-attribute count, canonical key), the
// order every snapshot emits, so emit() reproduces the sort-then-filter
// snapshot byte for byte. Each node's key is interned when it first joins,
// so it is built once per node lifetime. A settle binary-searches each
// flipped node, sorts only the adds and merges them into the survivors,
// which are already in order; the attrMask prefilter is carried alongside.
// The member columns are double-buffered and every scratch array is reused
// across settles.
//
// Cancellation: settle polls the context per level, then every 64 scans
// and every 4096 subset checks. A halted settle keeps the merged
// membership and marks the split stale; the next settle recomputes the
// split over that membership, so no flip is lost.
type domFrontier struct {
	frontCols // the members, in sorted order
	ndom      int
	stale     bool // a halted settle left the split unknown

	ops []frontOp // flips buffered until the next settle

	// Settle scratch, reused across settles.
	spare   frontCols
	last    map[*node]bool
	adds    []frontAdd
	remap   []int32 // old member index → new index, or -1 when removed
	state   []uint8
	work    []int32
	acc     []frontAcc
	accAdds []frontAcc
}

// frontCols holds the members as parallel columns.
type frontCols struct {
	nodes []*node
	keys  []string // the interned keys, so lookups never chase a node
	masks []uint64
	attrs []int32
	dom   []bool
	wit   []int32 // index of the member proving dom[i]; -1 otherwise
}

func (c *frontCols) reset() {
	c.nodes, c.keys, c.masks, c.attrs = c.nodes[:0], c.keys[:0], c.masks[:0], c.attrs[:0]
	c.dom, c.wit = c.dom[:0], c.wit[:0]
}

func (c *frontCols) push(nd *node, key string, mask uint64, attrs int32, dom bool, wit int32) {
	c.nodes = append(c.nodes, nd)
	c.keys = append(c.keys, key)
	c.masks = append(c.masks, mask)
	c.attrs = append(c.attrs, attrs)
	c.dom = append(c.dom, dom)
	c.wit = append(c.wit, wit)
}

// frontOp is one buffered membership flip.
type frontOp struct {
	nd  *node
	add bool
}

// frontAdd is a node joining the members at insertion index pos.
type frontAdd struct {
	nd    *node
	pos   int32
	attrs int32
	key   string
}

// frontAcc is an accepted member as the level scans read it.
type frontAcc struct {
	p    pattern.Pattern
	mask uint64
	idx  int32
}

// Settle states of a merged member.
const (
	stKeep   uint8 = iota // dominated survivor whose witness stayed
	stAcc                 // previously accepted survivor
	stOrphan              // dominated survivor whose witness left
	stAdd                 // new member
)

func newDomFrontier() *domFrontier {
	return &domFrontier{last: map[*node]bool{}}
}

// add buffers the admission of nd for the next settle().
func (f *domFrontier) add(nd *node) { f.ops = append(f.ops, frontOp{nd: nd, add: true}) }

// remove buffers the eviction of nd for the next settle().
func (f *domFrontier) remove(nd *node) { f.ops = append(f.ops, frontOp{nd: nd}) }

// settle applies the buffered flips, leaving the split current. It
// reports halted=true when the update was abandoned because ctx was
// canceled (the split is stale until the next settle; callers abandon the
// search).
func (f *domFrontier) settle(ctx context.Context, workers int) (halted bool) {
	if len(f.ops) == 0 && !f.stale {
		return false
	}
	f.fold()
	f.merge()
	return f.split(ctx, workers)
}

// fold reduces the op log to the net delta by each node's last flip: the
// admitted nodes that are not members yet go to f.adds, sorted into member
// order with their insertion index; the evicted members get remap -1. The
// searches build each pattern at one node, so no two members share a key
// and a node is a member iff it sits at its key's insertion index.
func (f *domFrontier) fold() {
	f.remap = slices.Grow(f.remap[:0], len(f.nodes))[:len(f.nodes)]
	clear(f.remap)
	for _, op := range f.ops {
		f.last[op.nd] = op.add
	}
	f.adds = f.adds[:0]
	for _, op := range f.ops {
		want, pending := f.last[op.nd]
		if !pending {
			continue
		}
		delete(f.last, op.nd)
		nd := op.nd
		if nd.key == "" {
			nd.key = nd.p.Key()
		}
		na := int32(nd.p.NumAttrs())
		pos := f.searchPos(na, nd.key)
		member := pos < len(f.nodes) && f.nodes[pos] == nd
		switch {
		case want && !member:
			f.adds = append(f.adds, frontAdd{nd: nd, pos: int32(pos), attrs: na, key: nd.key})
		case !want && member:
			f.remap[pos] = -1
		}
	}
	clear(f.ops)
	f.ops = f.ops[:0]
	// The insertion index is monotone in (attrs, key), so it orders the
	// adds up to ties among adds landing in the same gap.
	slices.SortFunc(f.adds, func(a, b frontAdd) int {
		if a.pos != b.pos {
			return int(a.pos - b.pos)
		}
		if a.attrs != b.attrs {
			return int(a.attrs - b.attrs)
		}
		return strings.Compare(a.key, b.key)
	})
}

// searchPos returns the insertion index of (attrs, key) in the sorted
// member order.
func (f *domFrontier) searchPos(attrs int32, key string) int {
	lo, hi := 0, len(f.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.attrs[mid] < attrs || (f.attrs[mid] == attrs && f.keys[mid] < key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// merge interleaves the survivors and the sorted adds into the spare
// columns in member order, recording each entry's settle state, and swaps
// them in.
func (f *domFrontier) merge() {
	f.spare.reset()
	f.state = f.state[:0]
	i := 0
	for _, ad := range f.adds {
		for ; i < int(ad.pos); i++ {
			f.carry(i)
		}
		f.spare.push(ad.nd, ad.key, attrMask(ad.nd.p), ad.attrs, false, -1)
		f.state = append(f.state, stAdd)
	}
	for ; i < len(f.nodes); i++ {
		f.carry(i)
	}
	f.frontCols, f.spare = f.spare, f.frontCols
	f.stale = false
}

// carry moves old member i into the spare columns unless it was removed.
// A survivor keeps its mask, attrs and split, with its witness remapped to
// the new index; a dominated survivor whose witness left becomes an
// orphan. Witnesses sit on lower levels, so a witness is always remapped
// before the members it proves.
func (f *domFrontier) carry(i int) {
	if f.remap[i] < 0 {
		return
	}
	c := &f.spare
	f.remap[i] = int32(len(c.nodes))
	st, dom, wit := stAcc, false, int32(-1)
	switch {
	case f.stale:
		st = stOrphan
	case f.dom[i]:
		st = stOrphan
		if w := f.remap[f.wit[i]]; w >= 0 {
			st, dom, wit = stKeep, true, w
		}
	}
	c.push(f.nodes[i], f.keys[i], f.masks[i], f.attrs[i], dom, wit)
	f.state = append(f.state, st)
}

// split settles the merged members level by level in ascending generality
// (see domFrontier), recounting ndom. On halt it marks the split stale.
func (f *domFrontier) split(ctx context.Context, workers int) (halted bool) {
	f.acc, f.accAdds = f.acc[:0], f.accAdds[:0]
	f.ndom = 0
	var stop atomic.Bool
	n := len(f.nodes)
	for start := 0; start < n; {
		end := start
		for end < n && f.attrs[end] == f.attrs[start] {
			end++
		}
		f.work = f.work[:0]
		for i := start; i < end; i++ {
			if st := f.state[i]; st >= stOrphan || st == stAcc && len(f.accAdds) > 0 {
				f.work = append(f.work, int32(i))
			}
		}
		if len(f.work) > 0 {
			if ctx != nil && ctx.Err() != nil {
				f.stale = true
				return true
			}
			work, acc, accAdds := f.work, f.acc, f.accAdds
			fanOut(workers, len(work), func(t int) {
				if stop.Load() {
					return
				}
				if t&63 == 0 && ctx != nil && ctx.Err() != nil {
					stop.Store(true)
					return
				}
				i := work[t]
				list := acc
				if f.state[i] == stAcc {
					list = accAdds
				}
				p, pm := f.nodes[i].p, f.masks[i]
				for j := range list {
					if j&4095 == 4095 && stop.Load() {
						return
					}
					if q := &list[j]; q.mask&^pm == 0 && q.p.ProperSubsetOf(p) {
						f.dom[i], f.wit[i] = true, q.idx
						return
					}
				}
			})
			if stop.Load() {
				f.stale = true
				return true
			}
		}
		for i := start; i < end; i++ {
			if f.dom[i] {
				f.ndom++
				continue
			}
			q := frontAcc{p: f.nodes[i].p, mask: f.masks[i], idx: int32(i)}
			f.acc = append(f.acc, q)
			if f.state[i] == stAdd {
				f.accAdds = append(f.accAdds, q)
			}
		}
		start = end
	}
	return false
}

// emit renders the current Res — the non-dominated members in
// (generality, key) order, matching the sort-then-filter snapshot.
func (f *domFrontier) emit() []Pattern {
	out := make([]Pattern, 0, len(f.nodes)-f.ndom)
	for i, nd := range f.nodes {
		if !f.dom[i] {
			out = append(out, nd.p)
		}
	}
	return out
}
