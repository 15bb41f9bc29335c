package count

import (
	"rankfair/internal/pattern"
)

// Extend derives the index of an appended dataset from this index without
// rebuilding: the streaming ingestion path's in-place posting-list
// maintenance. rows is the full appended matrix whose first NumRows()
// entries are the receiver's rows unchanged, space describes it (cards may
// only grow — new values gain empty posting slots), and ranking is the full
// new permutation, best first (callers validate it upstream, as with
// Build).
//
// The receiver is immutable and stays fully usable — this is what gives the
// service layer copy-on-write snapshot isolation, with in-flight audits
// searching the old generation while the new one lands. Sharing is
// per posting list: a list none of whose ranks shift (every entry below the
// first insertion position) and which gains no new entry is aliased into
// the new index untouched; only lists the batch actually perturbs are
// rewritten — one ordered insert per appended row per attribute, with
// existing entries remapped through the monotone old-rank → new-rank map.
// A batch that lands at the bottom of the ranking (the common streaming
// shape: new arrivals scoring below the incumbents) therefore shares almost
// every posting list with its parent. The rank columns are never shared:
// each is a fresh array that copies its parent's codes in blocks between
// insertion positions. The derivation costs O(n + b·attrs) list work plus
// those block copies, instead of Build's O(n·attrs) scatter on top of an
// O(n log n) re-rank.
func (ix *Index) Extend(rows [][]int32, space *pattern.Space, ranking []int) *Index {
	n := len(ix.rows)
	total := len(rows)
	out := &Index{
		rows:     rows,
		ranking:  ranking,
		space:    space,
		rankOf:   make([]int32, total),
		cols:     newColumns(space.NumAttrs(), total),
		postings: make([][][]int32, space.NumAttrs()),
	}
	// One pass over the new ranking: the rank map, the monotone old-rank →
	// new-rank map, and the appended rows' insertion positions (ascending
	// by construction).
	newRankOfOld := make([]int32, n)
	inserted := make([]int32, 0, total-n)
	for rank, ri := range ranking {
		out.rankOf[ri] = int32(rank)
		if ri < n {
			newRankOfOld[ix.rankOf[ri]] = int32(rank)
		} else {
			inserted = append(inserted, int32(rank))
		}
	}
	// Old ranks strictly below the first insertion position are unshifted;
	// with an empty batch nothing shifts at all.
	minIns := total
	if len(inserted) > 0 {
		minIns = int(inserted[0])
	}
	// Each rank column keeps the parent's prefix below the first insertion
	// position. Above it, the parent's codes between two insertions move
	// up as one block (old ranks keep their relative order), and each
	// insertion writes the appended row's code.
	for a, col := range out.cols {
		pos := copy(col[:minIns], ix.cols[a])
		rest := ix.cols[a][minIns:]
		for _, q := range inserted {
			rest = rest[copy(col[pos:q], rest):]
			col[q] = rows[ranking[q]][a]
			pos = int(q) + 1
		}
		copy(col[pos:], rest)
	}

	// Per attribute: bucket the appended rows' ranks by value (ascending,
	// since inserted is ascending), then merge each touched list.
	for a := 0; a < space.NumAttrs(); a++ {
		card := space.Cards[a]
		out.postings[a] = make([][]int32, card)
		var oldLists [][]int32
		if a < len(ix.postings) {
			oldLists = ix.postings[a]
		}
		newPer := make([][]int32, card)
		for _, rank := range inserted {
			v := out.cols[a][rank]
			newPer[v] = append(newPer[v], rank)
		}
		for v := 0; v < card; v++ {
			var old []int32
			if v < len(oldLists) {
				old = oldLists[v]
			}
			add := newPer[v]
			if len(add) == 0 && (len(old) == 0 || int(old[len(old)-1]) < minIns) {
				out.postings[a][v] = old // untouched: alias, copy-on-write
				continue
			}
			merged := make([]int32, 0, len(old)+len(add))
			i, j := 0, 0
			for i < len(old) && j < len(add) {
				or := newRankOfOld[old[i]]
				if or < add[j] {
					merged = append(merged, or)
					i++
				} else {
					merged = append(merged, add[j])
					j++
				}
			}
			for ; i < len(old); i++ {
				merged = append(merged, newRankOfOld[old[i]])
			}
			merged = append(merged, add[j:]...)
			out.postings[a][v] = merged
		}
	}
	return out
}
