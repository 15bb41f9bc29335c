// Package count is the shared counting engine behind every layer that asks
// "how large is group p, and how much of it sits in the top k?". The two
// primitives — s_D(p) and s_{R_k(D)}(p) of Definition 2.3 — are what report
// serialization, repair, Shapley explanations and the divergence comparator
// all previously answered with full dataset scans, O(n·attrs) per query.
//
// The engine replaces the scans with a rank-indexed inverted index: for each
// (attribute, value) pair a posting list of *rank positions* (0-based
// positions in the black-box ranking, ascending). Because the ranking is a
// permutation of all rows, one structure answers both primitives:
//
//   - s_D(p) for a single-attribute pattern is a list length;
//   - s_{R_k(D)}(p) for a single-attribute pattern is a binary search
//     (entries with rank < k form a prefix of the sorted list);
//   - multi-attribute patterns probe the shortest bound posting list (for
//     s_{R_k(D)}, its length-k prefix) and verify the remaining bound
//     attributes against their rank columns, O(shortest·attrs) instead of
//     O(n·attrs) — in practice a tiny fraction of the dataset.
//
// Posting lists and rank columns are the whole of the counting state: every
// count, match set and lattice-search split reads one or both.
//
// CountsOver and ExposuresOver are the per-report materialization
// primitives: one pass over a pattern's match ranks yields its full per-k
// count (or exposure) vector for an entire [KMin, KMax] range, so counts at
// k+1 derive from counts at k instead of being recomputed from scratch.
package count

import (
	"slices"
	"sort"
	"sync"

	"rankfair/internal/pattern"
)

// Index is the rank-ordered posting-list index over one (rows, ranking)
// pair: a posting list of ranks per (attribute, value) and a rank column
// per attribute. It is immutable after Build and safe for concurrent
// readers, which is what lets one index hang off a cached Analyst and
// serve every report, repair, explanation and divergence query against
// that dataset.
type Index struct {
	rows    [][]int32
	ranking []int
	space   *pattern.Space
	// rankOf[row] is the 0-based position of row in the ranking.
	rankOf []int32
	// cols[a][r] is the code of attribute a at rank position r — the
	// rank-major dataset stored column-wise. The probe-and-verify walk and
	// the lattice search's per-attribute partitions read one attribute
	// across many ranks, so each reads one column.
	cols [][]int32
	// postings[a][v] holds the rank positions of rows with row[a] == v,
	// ascending. The per-(a,v) lists partition [0, n).
	postings [][][]int32
}

// Build constructs the index in one O(n·attrs) pass. ranking must be a
// permutation of row indices, best first (core.Input.Validate enforces
// this upstream).
func Build(rows [][]int32, space *pattern.Space, ranking []int) *Index {
	ix := &Index{
		rows:     rows,
		ranking:  ranking,
		space:    space,
		rankOf:   make([]int32, len(rows)),
		cols:     newColumns(space.NumAttrs(), len(rows)),
		postings: make([][][]int32, space.NumAttrs()),
	}
	// Size the posting lists exactly before filling them, so Build does no
	// append-regrowth copying.
	counts := make([][]int32, space.NumAttrs())
	for a, card := range space.Cards {
		counts[a] = make([]int32, card)
	}
	for _, row := range rows {
		for a, v := range row {
			counts[a][v]++
		}
	}
	for a, card := range space.Cards {
		ix.postings[a] = make([][]int32, card)
		for v := 0; v < card; v++ {
			ix.postings[a][v] = make([]int32, 0, counts[a][v])
		}
	}
	for rank, ri := range ranking {
		ix.rankOf[ri] = int32(rank)
		for a, v := range rows[ri] {
			ix.cols[a][rank] = v
			ix.postings[a][v] = append(ix.postings[a][v], int32(rank))
		}
	}
	return ix
}

// newColumns allocates attrs rank columns of n codes over one backing
// array.
func newColumns(attrs, n int) [][]int32 {
	flat := make([]int32, attrs*n)
	cols := make([][]int32, attrs)
	for a := range cols {
		cols[a] = flat[a*n : (a+1)*n : (a+1)*n]
	}
	return cols
}

// NumRows returns the number of indexed rows.
func (ix *Index) NumRows() int { return len(ix.rows) }

// RankOf returns the 0-based rank position of a row.
func (ix *Index) RankOf(row int) int { return int(ix.rankOf[row]) }

// Column returns attribute attr's rank column: element r is the code of
// attr at rank position r. Callers must not mutate it. The rank-space
// lattice search partitions posting lists by attribute value through it.
func (ix *Index) Column(attr int) []int32 { return ix.cols[attr] }

// Postings returns the posting list of (attr, value): the ascending rank
// positions of the rows holding that value. Callers must not mutate it.
func (ix *Index) Postings(attr int, val int32) []int32 { return ix.postings[attr][val] }

// SizeBytes estimates the heap footprint of the index's owned structures:
// the rank map, the rank columns and the posting lists (counting capacity,
// since extended indexes share list backing arrays copy-on-write). Rows and
// ranking are excluded — the index aliases the caller's slices. The
// estimate feeds observability gauges; it is not an exact allocator
// accounting.
func (ix *Index) SizeBytes() int64 {
	const sliceHeader = 24
	size := int64(len(ix.rankOf))*4 + int64(len(ix.cols))*sliceHeader
	for _, col := range ix.cols {
		size += int64(len(col)) * 4
	}
	for _, lists := range ix.postings {
		size += int64(len(lists)) * sliceHeader
		for _, l := range lists {
			size += int64(cap(l)) * 4
		}
	}
	return size
}

// upperBound returns the number of entries of ranks strictly below k.
// Because ranks is ascending, that is the index of the first entry >= k.
func upperBound(ranks []int32, k int) int {
	// Fast paths: the whole list is inside (or outside) the prefix.
	if m := len(ranks); m == 0 || int(ranks[m-1]) < k {
		return m
	}
	if int(ranks[0]) >= k {
		return 0
	}
	return sort.Search(len(ranks), func(i int) bool { return int(ranks[i]) >= k })
}

// PrefixCount returns the number of entries of an ascending rank list that
// fall strictly below k — s_{R_k(D)} for any materialized match list.
func PrefixCount(ranks []int32, k int) int { return upperBound(ranks, k) }

// shortestBound returns the bound attribute of p with the shortest posting
// list, and whether p binds any attribute at all. empty reports that p
// binds a value outside its attribute's domain: such a pattern matches no
// row (the naive scan compares codes and never finds it), so callers must
// answer 0 / nil rather than index a posting list that does not exist.
func (ix *Index) shortestBound(p pattern.Pattern) (attr int, empty, bound bool) {
	best, bestLen := -1, -1
	for a, v := range p {
		if v == pattern.Unbound {
			continue
		}
		if v < 0 || int(v) >= len(ix.postings[a]) {
			return 0, true, true
		}
		if l := len(ix.postings[a][v]); best < 0 || l < bestLen {
			best, bestLen = a, l
		}
	}
	return best, false, best >= 0
}

// Count returns s_D(p), the number of rows matching p.
func (ix *Index) Count(p pattern.Pattern) int {
	probe, empty, ok := ix.shortestBound(p)
	if !ok {
		return len(ix.rows)
	}
	if empty {
		return 0
	}
	list := ix.postings[probe][p[probe]]
	if p.NumAttrs() == 1 {
		return len(list)
	}
	return ix.countVerified(list, p, probe)
}

// CountTopK returns s_{R_k(D)}(p), the number of rows among the top k of
// the ranking that match p. k beyond the dataset size is clamped.
func (ix *Index) CountTopK(p pattern.Pattern, k int) int {
	if k > len(ix.rows) {
		k = len(ix.rows)
	}
	if k <= 0 {
		return 0
	}
	probe, empty, ok := ix.shortestBound(p)
	if !ok {
		return k
	}
	if empty {
		return 0
	}
	list := ix.postings[probe][p[probe]]
	cut := upperBound(list, k)
	if p.NumAttrs() == 1 {
		return cut
	}
	return ix.countVerified(list[:cut], p, probe)
}

// MatchRanks returns the ascending rank positions of every row matching p.
// Single-attribute patterns alias the posting list directly; callers must
// treat the result as read-only.
func (ix *Index) MatchRanks(p pattern.Pattern) []int32 {
	if probe, empty, ok := ix.shortestBound(p); ok && !empty && p.NumAttrs() == 1 {
		return ix.postings[probe][p[probe]]
	}
	return ix.MatchRanksInto(nil, p)
}

// MatchRanksInto appends the ascending rank positions of every row matching
// p onto dst and returns the extended slice; the result never aliases the
// index, and dst must not alias a list the index returned. It probes the
// shortest bound posting list and verifies the other bound attributes
// against their rank columns.
func (ix *Index) MatchRanksInto(dst []int32, p pattern.Pattern) []int32 {
	probe, empty, ok := ix.shortestBound(p)
	switch {
	case !ok:
		dst = slices.Grow(dst, len(ix.rows))
		for r := range len(ix.rows) {
			dst = append(dst, int32(r))
		}
		return dst
	case empty:
		return dst
	}
	return ix.verifyInto(dst, ix.postings[probe][p[probe]], p, probe)
}

// verifyInto appends onto dst the entries of list — a posting list of p's
// bound attribute skip, or a prefix of one — whose rows match p on every
// other bound attribute. Each of those attributes is one branch-free pass
// over its rank column: the pass writes every surviving rank
// unconditionally and advances the output by its 0/1 match flag,
// compacting the survivors in place.
func (ix *Index) verifyInto(dst, list []int32, p pattern.Pattern, skip int) []int32 {
	type check struct {
		col []int32
		v   int32
	}
	var buf [8]check
	checks := buf[:0]
	for a, v := range p {
		if a != skip && v != pattern.Unbound {
			checks = append(checks, check{col: ix.cols[a], v: v})
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, len(list))
	out := dst[base : base+len(list)]
	if len(checks) == 0 {
		return dst[:base+copy(out, list)]
	}
	src := list
	for _, c := range checks {
		n := 0
		for _, r := range src {
			out[n] = r
			// Codes are non-negative, so col[r]^v is 0 on a match and
			// positive otherwise: uint32(x-1)>>31 is the match flag.
			n += int(uint32((c.col[r]^c.v)-1) >> 31)
		}
		src = out[:n]
		if n == 0 {
			break
		}
	}
	return dst[:base+len(src)]
}

// verifyBufs pools the scratch rank buffers of the counting walks.
var verifyBufs = sync.Pool{New: func() any { return new([]int32) }}

// countVerified returns how many entries of list verifyInto keeps.
func (ix *Index) countVerified(list []int32, p pattern.Pattern, skip int) int {
	buf := verifyBufs.Get().(*[]int32)
	*buf = ix.verifyInto((*buf)[:0], list, p, skip)
	n := len(*buf)
	verifyBufs.Put(buf)
	return n
}

// MatchRows returns the row indices matching p in ascending row order —
// the iteration order of a naive dataset scan, preserved so downstream
// consumers (e.g. seeded Shapley sampling) stay byte-identical with the
// scanning implementation they replace.
func (ix *Index) MatchRows(p pattern.Pattern) []int {
	ranks := ix.MatchRanks(p)
	out := make([]int, len(ranks))
	for i, rk := range ranks {
		out[i] = ix.ranking[rk]
	}
	sort.Ints(out)
	return out
}

// CountsOver materializes a pattern's per-k count vector: out[k-kMin] is
// the number of entries of ranks strictly below k, for every k in
// [kMin, kMax]. One pass over ranks: the count at k+1 derives from the
// count at k by advancing a cursor, never rescanning.
func CountsOver(ranks []int32, kMin, kMax int) []int32 {
	out := make([]int32, kMax-kMin+1)
	cur := upperBound(ranks, kMin)
	out[0] = int32(cur)
	for k := kMin + 1; k <= kMax; k++ {
		// Ranks equal to k-1 enter the prefix at k.
		for cur < len(ranks) && int(ranks[cur]) < k {
			cur++
		}
		out[k-kMin] = int32(cur)
	}
	return out
}

// ExposuresOver materializes a pattern's per-k exposure vector: out[k-kMin]
// is the sum of w[r] over entries r of ranks strictly below k. Weights are
// accumulated in ascending rank order — the same float summation order as a
// naive prefix scan, so results are bit-identical to it.
func ExposuresOver(ranks []int32, w []float64, kMin, kMax int) []float64 {
	out := make([]float64, kMax-kMin+1)
	cur, sum := 0, 0.0
	for cur < len(ranks) && int(ranks[cur]) < kMin {
		sum += w[ranks[cur]]
		cur++
	}
	out[0] = sum
	for k := kMin + 1; k <= kMax; k++ {
		for cur < len(ranks) && int(ranks[cur]) < k {
			sum += w[ranks[cur]]
			cur++
		}
		out[k-kMin] = sum
	}
	return out
}
