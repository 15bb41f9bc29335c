package core

import (
	"rankfair/internal/pattern"
)

// topDownSearch is Algorithm 1: a single top-down traversal of the search
// tree for one value of k, returning the most general patterns below the
// lower bound b (Res) and the dominated ones reached during the search
// (DRes).
// The traversal polls cn once per node and abandons the search when the
// caller's context is canceled (the partial result is then meaningless).
//
// The traversal is FIFO (level order), so when a biased pattern is reached,
// every more general biased pattern has already been classified; the
// update() check of the paper therefore only needs to scan Res — through a
// subsetFilter, whose attribute bitmasks skip patterns over disjoint
// attribute sets without comparing values. Frontier match sets live in
// the traversal's ring arena (see bfs.go): pop reclaims the blocks of
// already-consumed entries, and size-pruned entries never materialize a
// Pattern.
func topDownSearch(cn *canceler, eng *engine, minSize, k int, b *bound, stats *Stats, ss *SearchStats) (res, dres []pattern.Pattern) {
	stats.FullSearches++

	q := eng.newBFS()
	defer q.close()
	filt := newSubsetFilter()

	for q.more() {
		if cn.stopped() {
			return nil, nil
		}
		u := q.pop()
		stats.NodesExamined++
		sD := len(u.m.all)
		if sD < minSize {
			ss.prunedSize()
			continue
		}
		if b.stops(sD, b.score(u.m, k), k) {
			p := q.pat(&u)
			ss.prunedBound()
			if filt.dominated(p) {
				ss.addDominated(1)
				dres = append(dres, p)
			} else {
				ss.frontier(p)
				filt.add(p)
			}
			continue
		}
		ss.expanded()
		q.expand(&u, q.pat(&u))
	}
	return filt.res, dres
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

// subsetFilter maintains a result set of mutually incomparable patterns
// with an attribute-bitmask prefilter over the proper-subset scan: the
// linear pass over Res compares one uint64 per candidate and only falls
// through to ProperSubsetOf when the attribute sets can nest.
type subsetFilter struct {
	res   []pattern.Pattern
	masks []uint64
}

// dominated reports whether any member of the filter is a proper subset
// of p.
func (f *subsetFilter) dominated(p pattern.Pattern) bool {
	pm := attrMask(p)
	for i, qm := range f.masks {
		if qm&^pm == 0 && f.res[i].ProperSubsetOf(p) {
			return true
		}
	}
	return false
}

// add admits p into the result set.
func (f *subsetFilter) add(p pattern.Pattern) {
	f.res = append(f.res, p)
	f.masks = append(f.masks, attrMask(p))
}

// newSubsetFilter returns a filter presized for a typical biased frontier,
// so the per-k searches of a staircase sweep admit their first patterns
// without append-growth reallocations. The result slice escapes into the
// search's return value, so the backing arrays are per-search allocations
// by design — presizing just collapses the doubling ladder into one carve.
func newSubsetFilter() subsetFilter {
	const hint = 64
	return subsetFilter{
		res:   make([]pattern.Pattern, 0, hint),
		masks: make([]uint64, 0, hint),
	}
}
