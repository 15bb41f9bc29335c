package count

import (
	"sort"

	"rankfair/internal/pattern"
)

// This file holds the posting-list intersection references: a pattern's
// match set is the intersection of its bound attributes' posting lists,
// all ascending rank lists. The lattice search rebuilds match sets with
// the column probe of MatchRanksInto; the tests of that probe compare
// against these merges.

// gallopRatio is the length ratio between the two input lists beyond which
// IntersectInto abandons the linear merge for galloping search: probing the
// long list per element of the short one costs O(short·log(long/short)),
// which beats the O(short+long) merge only when the lists are lopsided.
const gallopRatio = 8

// Intersect returns the values common to a and b, two ascending rank
// lists, as a freshly allocated slice.
func Intersect(a, b []int32) []int32 {
	return IntersectInto(make([]int32, 0, min(len(a), len(b))), a, b)
}

// IntersectInto appends the values common to a and b — both ascending —
// onto dst and returns the extended slice. dst must not overlap a or b.
// The adaptive algorithm linearly merges lists of comparable length and
// gallops through the longer list when the lengths are lopsided
// (gallopRatio), so intersecting a tiny frontier list against a huge
// posting list costs O(tiny·log) instead of O(huge).
func IntersectInto(dst, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 || a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, x := range a {
			lo += gallop(b[lo:], x)
			if lo >= len(b) {
				break
			}
			if b[lo] == x {
				dst = append(dst, x)
				lo++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// gallop returns the index of the first element of b that is >= x:
// exponential probing from the front brackets the answer in a window of
// size proportional to its distance, then a binary search pins it down,
// O(log d) for distance d. b is ascending.
func gallop(b []int32, x int32) int {
	if len(b) == 0 || b[0] >= x {
		return 0
	}
	lo, step := 0, 1 // invariant: b[lo] < x
	for lo+step < len(b) && b[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step // b[hi] >= x, or hi is past the end
	if hi > len(b) {
		hi = len(b)
	}
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return b[lo+1+i] >= x })
}

// IntersectPostings returns the ascending rank positions of the rows
// matching p, computed by progressively intersecting the pattern's bound
// posting lists, shortest first (each step's output is no longer than its
// shortest input, so later intersections only get cheaper). It is the
// intersection-based counterpart of MatchRanks' probe-and-verify; both
// return identical lists. Single-attribute patterns alias their posting
// list directly — callers must treat the result as read-only.
func (ix *Index) IntersectPostings(p pattern.Pattern) []int32 {
	var lists [][]int32
	for a, v := range p {
		if v == pattern.Unbound {
			continue
		}
		if v < 0 || int(v) >= len(ix.postings[a]) {
			return nil // out-of-domain value: matches nothing
		}
		lists = append(lists, ix.postings[a][v])
	}
	switch len(lists) {
	case 0:
		all := make([]int32, len(ix.rows))
		for i := range all {
			all[i] = int32(i)
		}
		return all
	case 1:
		return lists[0]
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	res := Intersect(lists[0], lists[1])
	for _, b := range lists[2:] {
		if len(res) == 0 {
			break
		}
		res = Intersect(res, b)
	}
	return res
}
