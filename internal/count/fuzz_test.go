package count

import (
	"sort"
	"testing"

	"rankfair/internal/pattern"
)

// FuzzIndexedCounts decodes an arbitrary byte string into a small space,
// row matrix, ranking and pattern, and asserts the indexed counts equal the
// naive scans — the coverage-guided twin of TestIndexMatchesNaive.
func FuzzIndexedCounts(f *testing.F) {
	f.Add([]byte{3, 2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 1, 0, 0, 0})
	f.Add([]byte{2, 4, 4, 7, 3, 1, 0, 2, 6, 5, 4, 3, 2, 1, 9, 8, 7, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		nAttrs := 1 + int(data[0]%4)
		if len(data) < 1+nAttrs {
			t.Skip()
		}
		space := &pattern.Space{
			Names: make([]string, nAttrs),
			Cards: make([]int, nAttrs),
		}
		for a := 0; a < nAttrs; a++ {
			space.Names[a] = string(rune('A' + a))
			space.Cards[a] = 1 + int(data[1+a]%5)
		}
		body := data[1+nAttrs:]
		nRows := len(body) / (nAttrs + 1)
		if nRows == 0 {
			t.Skip()
		}
		if nRows > 64 {
			nRows = 64
		}
		rows := make([][]int32, nRows)
		for i := range rows {
			rows[i] = make([]int32, nAttrs)
			for a := 0; a < nAttrs; a++ {
				rows[i][a] = int32(int(body[i*(nAttrs+1)+a]) % space.Cards[a])
			}
		}
		// Derive a permutation from the leftover byte per row: a stable
		// sort key ensures a valid ranking regardless of input bytes.
		ranking := make([]int, nRows)
		for i := range ranking {
			ranking[i] = i
		}
		for i := range ranking {
			j := int(body[i*(nAttrs+1)+nAttrs]) % nRows
			ranking[i], ranking[j] = ranking[j], ranking[i]
		}
		ix := Build(rows, space, ranking)

		// Check the rank columns, then derive patterns of every arity from
		// the data tail and compare Count and CountTopK, whose column probe
		// reads those columns, against the naive scans.
		checkIndex := func(ix *Index, rows [][]int32, ranking []int) {
			nRows := len(rows)
			for a := 0; a < nAttrs; a++ {
				col := ix.Column(a)
				if len(col) != nRows {
					t.Fatalf("Column(%d) has %d ranks, want %d", a, len(col), nRows)
				}
				for r, ri := range ranking {
					if col[r] != rows[ri][a] {
						t.Fatalf("Column(%d)[%d] = %d, want rows[%d][%d] = %d", a, r, col[r], ri, a, rows[ri][a])
					}
				}
			}
			for arity := 0; arity <= nAttrs; arity++ {
				p := pattern.Empty(nAttrs)
				for a := 0; a < arity; a++ {
					p[a] = int32(int(data[(a+arity)%len(data)]) % space.Cards[a])
				}
				if got, want := ix.Count(p), p.Count(rows); got != want {
					t.Fatalf("Count(%v) = %d, naive %d", p, got, want)
				}
				for _, k := range []int{1, nRows / 2, nRows} {
					if k < 1 {
						continue
					}
					if got, want := ix.CountTopK(p, k), p.CountTopK(rows, ranking, k); got != want {
						t.Fatalf("CountTopK(%v, %d) = %d, naive %d", p, k, got, want)
					}
				}
			}
		}
		checkIndex(ix, rows, ranking)

		// Append-then-count: extend the index with a derived batch (the
		// streaming path, which aliases untouched posting lists and merges
		// perturbed ones, and keeps the column prefix below the first
		// insertion) and re-assert the columns and every count on the
		// grown dataset.
		nExtra := 1 + int(data[len(data)-1]%4)
		rows2 := append(make([][]int32, 0, nRows+nExtra), rows...)
		for e := 0; e < nExtra; e++ {
			r := make([]int32, nAttrs)
			for a := 0; a < nAttrs; a++ {
				r[a] = int32(int(data[(e*3+a)%len(data)]) % space.Cards[a])
			}
			rows2 = append(rows2, r)
		}
		// Insert each appended row id into the ranking at a byte-derived
		// position; old rows keep their relative order, as Extend requires.
		ranking2 := append(make([]int, 0, nRows+nExtra), ranking...)
		for e := 0; e < nExtra; e++ {
			pos := int(data[(e*5+1)%len(data)]) % (len(ranking2) + 1)
			ranking2 = append(ranking2, 0)
			copy(ranking2[pos+1:], ranking2[pos:])
			ranking2[pos] = nRows + e
		}
		checkIndex(ix.Extend(rows2, space, ranking2), rows2, ranking2)
	})
}

// FuzzIntersect decodes an arbitrary byte string into two ascending rank
// lists plus a small indexed dataset, and asserts the posting-list
// intersection primitives match naive list filtering: IntersectInto against
// a mark-and-sweep set intersection, and IntersectPostings against a row
// scan through pattern.Matches. It is the coverage-guided twin of
// TestIntersectMatchesNaive for the rank-space search engine.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 9, 8, 7, 6, 5, 0, 1, 2})
	f.Add([]byte{1, 0})
	f.Add([]byte{16, 255, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9, 9, 9, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		// Lists: split the tail in two, dedup+sort each into rank lists.
		// A skewed split exercises the galloping path.
		split := 1 + int(data[0])%(len(data)-1)
		toList := func(bs []byte) []int32 {
			seen := make(map[int32]bool, len(bs))
			for i, b := range bs {
				// Spread values so runs of equal bytes still produce
				// diverse gaps between entries.
				seen[int32(b)+int32(i%3)*256] = true
			}
			out := make([]int32, 0, len(seen))
			for v := range seen {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := toList(data[1:split]), toList(data[split:])
		got := IntersectInto(nil, a, b)
		inB := make(map[int32]bool, len(b))
		for _, x := range b {
			inB[x] = true
		}
		var want []int32
		for _, x := range a {
			if inB[x] {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("IntersectInto(%v, %v) = %v, want %v", a, b, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("IntersectInto(%v, %v) = %v, want %v", a, b, got, want)
			}
		}

		// Index-level: a tiny two-attribute dataset from the same bytes;
		// IntersectPostings must match the naive filter over every
		// two-attribute pattern.
		nRows := len(data)
		if nRows > 48 {
			nRows = 48
		}
		const cardA, cardB = 3, 4
		space := &pattern.Space{Names: []string{"A", "B"}, Cards: []int{cardA, cardB}}
		rows := make([][]int32, nRows)
		ranking := make([]int, nRows)
		for i := 0; i < nRows; i++ {
			rows[i] = []int32{int32(data[i]) % cardA, int32(data[i]>>3) % cardB}
			ranking[i] = i
		}
		for i := range ranking { // derive a permutation from the bytes
			j := int(data[(i*7)%len(data)]) % nRows
			ranking[i], ranking[j] = ranking[j], ranking[i]
		}
		ix := Build(rows, space, ranking)
		for va := int32(0); va < cardA; va++ {
			for vb := int32(0); vb < cardB; vb++ {
				p := pattern.Pattern{va, vb}
				ranks := ix.IntersectPostings(p)
				var naive []int32
				for r := 0; r < nRows; r++ {
					if p.Matches(rows[ranking[r]]) {
						naive = append(naive, int32(r))
					}
				}
				if len(ranks) != len(naive) {
					t.Fatalf("IntersectPostings(%v) = %v, naive filter %v", p, ranks, naive)
				}
				for i := range ranks {
					if ranks[i] != naive[i] {
						t.Fatalf("IntersectPostings(%v) = %v, naive filter %v", p, ranks, naive)
					}
				}
			}
		}
	})
}
