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
// flips and settle() applies them, so the per-k cost follows the flips,
// the members whose status they can change and Res, never the whole
// member set (most of which is dominated).
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
//     is a proper subset of it; any member among its search-tree
//     ancestors proves it too, so those are tried first;
//   - every dominated member records a witness (one member proving its
//     domination — any proper subset serves) and is filed under it; a
//     removal visits only the removed node's own dependents, which become
//     orphans and rescan like adds;
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
// A member's state lives on its node: accepted, dominated (with its
// witness and its place in the witness's dependent list) or pending within
// a settle. Adds and orphans are bucketed by generality level; only the
// accepted members are kept sorted, by (bound-attribute count, canonical
// key), the order every snapshot emits, so emit() reproduces the
// sort-then-filter snapshot byte for byte. A member's key is built only
// when it is accepted. The op log is folded by each node's last flip
// through a per-node settle epoch, and every scratch array is reused
// across settles.
//
// Cancellation: settle polls the context per level, then every 64 scans
// and every 4096 subset checks. A halted settle keeps the folded
// membership and marks the split stale; the next settle recomputes the
// split over that membership, so no flip is lost.
type domFrontier struct {
	all   []*node  // every member, in no order; node.fidx indexes it
	res   []resEnt // the accepted members, in emit order
	stale bool     // a halted settle left the split unknown
	epoch uint32   // the current settle, for folding the op log

	ops []frontOp // flips buffered until the next settle

	// Settle scratch, reused across settles.
	gone    []*node   // members removed by the fold
	pend    [][]*node // adds and orphans by generality level
	work    []*node
	acc     []frontAcc
	accAdds []frontAcc
	fresh   []resEnt // members accepted by this settle
	spare   []resEnt
}

// Frontier states of a node.
const (
	fOut    uint8 = iota // not a member
	fAcc                 // accepted: in Res
	fDom                 // dominated: filed under its witness
	fOrphan              // pending: a survivor whose split is recomputed
	fAdd                 // pending: admitted by this settle
)

// frontOp is one buffered membership flip.
type frontOp struct {
	nd  *node
	add bool
}

// resEnt is an accepted member with its sort key and attrMask prefilter.
type resEnt struct {
	nd   *node
	key  string
	mask uint64
	lvl  int32
}

// frontAcc is an accepted member as the level scans read it.
type frontAcc struct {
	p    pattern.Pattern
	mask uint64
	nd   *node
}

// attrMask folds a pattern's bound-attribute set into a 64-bit mask (bit
// a mod 64). q ⊆ p requires attrs(q) ⊆ attrs(p); on the folded masks a bit
// set for q but clear for p proves some attribute bound in q is unbound in
// every attribute of p's residue class — so qMask &^ pMask != 0 soundly
// rules the subset out for any attribute count, and the full comparison
// only runs on mask-compatible pairs.
func attrMask(p pattern.Pattern) uint64 {
	var m uint64
	for a, v := range p {
		if v != pattern.Unbound {
			m |= 1 << (uint(a) & 63)
		}
	}
	return m
}

func newDomFrontier() *domFrontier { return &domFrontier{} }

// add buffers the admission of nd for the next settle().
func (f *domFrontier) add(nd *node) { f.ops = append(f.ops, frontOp{nd: nd, add: true}) }

// remove buffers the eviction of nd for the next settle().
func (f *domFrontier) remove(nd *node) { f.ops = append(f.ops, frontOp{nd: nd}) }

// ndom returns the number of dominated members; it is current after a
// completed settle.
func (f *domFrontier) ndom() int { return len(f.all) - len(f.res) }

// settle applies the buffered flips, leaving the split current. It
// reports halted=true when the update was abandoned because ctx was
// canceled (the split is stale until the next settle; callers abandon the
// search).
func (f *domFrontier) settle(ctx context.Context, workers int) (halted bool) {
	if len(f.ops) == 0 && !f.stale {
		return false
	}
	if f.stale {
		f.restart()
	}
	f.fold()
	return f.split(ctx, workers)
}

// restart turns every member pending with an empty Res, so the split is
// recomputed from scratch.
func (f *domFrontier) restart() {
	for l := range f.pend {
		f.pend[l] = f.pend[l][:0]
	}
	f.res = f.res[:0]
	for _, nd := range f.all {
		nd.wit, nd.deps, nd.depPrev, nd.depNext = nil, nil, nil, nil
		f.queue(nd, fOrphan)
	}
	f.stale = false
}

// fold reduces the op log to the net delta by each node's last flip (the
// first one seen walking the log backwards) and applies it: an admitted
// non-member joins as a pending add; an evicted member leaves, and the
// dominated survivors it witnessed become pending orphans.
func (f *domFrontier) fold() {
	f.epoch++
	f.gone = f.gone[:0]
	for i := len(f.ops) - 1; i >= 0; i-- {
		op := f.ops[i]
		nd := op.nd
		if nd.epoch == f.epoch {
			continue
		}
		nd.epoch = f.epoch
		switch {
		case op.add && nd.fst == fOut:
			nd.fidx = int32(len(f.all))
			f.all = append(f.all, nd)
			f.queue(nd, fAdd)
		case !op.add && nd.fst != fOut:
			if nd.fst == fDom {
				f.unlink(nd)
			}
			last := f.all[len(f.all)-1]
			f.all[nd.fidx], last.fidx = last, nd.fidx
			f.all = f.all[:len(f.all)-1]
			nd.fst = fOut
			f.gone = append(f.gone, nd)
		}
	}
	clear(f.ops)
	f.ops = f.ops[:0]
	// Every removed dominated member is unlinked by now, so the lists left
	// under the removed nodes hold surviving dependents only.
	for _, nd := range f.gone {
		for d := nd.deps; d != nil; {
			next := d.depNext
			d.wit, d.depPrev, d.depNext = nil, nil, nil
			f.queue(d, fOrphan)
			d = next
		}
		nd.deps = nil
	}
}

// queue marks a member pending in state st and buckets it by level.
func (f *domFrontier) queue(nd *node, st uint8) {
	nd.fst = st
	l := int(nd.lvl)
	for len(f.pend) <= l {
		f.pend = append(f.pend, nil)
	}
	f.pend[l] = append(f.pend[l], nd)
}

// unlink takes a dominated member off its witness's dependent list.
func (f *domFrontier) unlink(nd *node) {
	if nd.depPrev != nil {
		nd.depPrev.depNext = nd.depNext
	} else {
		nd.wit.deps = nd.depNext
	}
	if nd.depNext != nil {
		nd.depNext.depPrev = nd.depPrev
	}
	nd.wit, nd.depPrev, nd.depNext = nil, nil, nil
}

// dominate files a member whose scan found a witness under it.
func (f *domFrontier) dominate(nd *node) {
	w := nd.wit
	nd.fst = fDom
	nd.depPrev, nd.depNext = nil, w.deps
	if w.deps != nil {
		w.deps.depPrev = nd
	}
	w.deps = nd
}

// split settles the pending members and the previously accepted ones
// level by level in ascending generality (see domFrontier), then merges
// the newly accepted members into Res. On halt it marks the split stale.
func (f *domFrontier) split(ctx context.Context, workers int) (halted bool) {
	f.acc, f.accAdds, f.fresh = f.acc[:0], f.accAdds[:0], f.fresh[:0]
	top := len(f.pend) - 1
	if n := len(f.res); n > 0 {
		top = max(top, int(f.res[n-1].lvl))
	}
	var stop atomic.Bool
	ri := 0
	for l := 0; l <= top; l++ {
		rj := ri
		for rj < len(f.res) && int(f.res[rj].lvl) == l {
			rj++
		}
		f.work = f.work[:0]
		if l < len(f.pend) {
			for _, nd := range f.pend[l] {
				if nd.fst >= fOrphan {
					f.work = append(f.work, nd)
				}
			}
			f.pend[l] = f.pend[l][:0]
		}
		npend := len(f.work)
		if len(f.accAdds) > 0 {
			for _, e := range f.res[ri:rj] {
				if e.nd.fst == fAcc {
					f.work = append(f.work, e.nd)
				}
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
				nd := work[t]
				list := acc
				if t >= npend {
					list = accAdds
				}
				for a := nd.parent; a != nil; a = a.parent {
					if a.fst == fAcc || a.fst == fDom {
						nd.wit = a
						return
					}
				}
				p := nd.p
				pm := attrMask(p)
				for j := range list {
					if j&4095 == 4095 && stop.Load() {
						return
					}
					if q := &list[j]; q.mask&^pm == 0 && q.p.ProperSubsetOf(p) {
						nd.wit = q.nd
						return
					}
				}
			})
			if stop.Load() {
				f.stale = true
				return true
			}
		}
		for _, e := range f.res[ri:rj] {
			switch {
			case e.nd.fst != fAcc:
			case e.nd.wit != nil:
				f.dominate(e.nd)
			default:
				f.acc = append(f.acc, frontAcc{p: e.nd.p, mask: e.mask, nd: e.nd})
			}
		}
		for _, nd := range f.work[:npend] {
			if nd.wit != nil {
				f.dominate(nd)
				continue
			}
			q := frontAcc{p: nd.p, mask: attrMask(nd.p), nd: nd}
			f.acc = append(f.acc, q)
			if nd.fst == fAdd {
				f.accAdds = append(f.accAdds, q)
			}
			nd.fst = fAcc
			f.fresh = append(f.fresh, resEnt{nd: nd, key: nd.p.Key(), mask: q.mask, lvl: int32(l)})
		}
		ri = rj
	}
	f.mergeRes()
	return false
}

// mergeRes interleaves the accepted survivors of Res, already in order,
// with the sorted newly accepted members into the spare array and swaps
// it in.
func (f *domFrontier) mergeRes() {
	slices.SortFunc(f.fresh, cmpRes)
	out := f.spare[:0]
	i := 0
	for _, e := range f.res {
		if e.nd.fst != fAcc {
			continue
		}
		for ; i < len(f.fresh) && cmpRes(f.fresh[i], e) < 0; i++ {
			out = append(out, f.fresh[i])
		}
		out = append(out, e)
	}
	out = append(out, f.fresh[i:]...)
	clear(f.res)
	f.res, f.spare = out, f.res[:0]
}

func cmpRes(a, b resEnt) int {
	if a.lvl != b.lvl {
		return int(a.lvl - b.lvl)
	}
	return strings.Compare(a.key, b.key)
}

// emit renders the current Res — the non-dominated members in
// (generality, key) order, matching the sort-then-filter snapshot.
func (f *domFrontier) emit() []Pattern {
	out := make([]Pattern, len(f.res))
	for i, e := range f.res {
		out[i] = e.nd.p
	}
	return out
}
