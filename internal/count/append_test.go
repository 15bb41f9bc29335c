package count

import (
	"math/rand"
	"testing"

	"rankfair/internal/pattern"
)

// randAppendCase builds a random base dataset plus an appended extension
// with a random interleaved ranking — the worst case for the copy-on-write
// derivation (insertions anywhere, every list potentially shifted).
func randAppendCase(rng *rand.Rand, n, b, attrs, card int) (base, full [][]int32, space *pattern.Space, baseRank, fullRank []int) {
	space = &pattern.Space{}
	for a := 0; a < attrs; a++ {
		space.Names = append(space.Names, string(rune('A'+a)))
		space.Cards = append(space.Cards, card)
	}
	full = make([][]int32, n+b)
	for i := range full {
		row := make([]int32, attrs)
		for a := range row {
			row[a] = int32(rng.Intn(card))
		}
		full[i] = row
	}
	base = full[:n]
	baseRank = rng.Perm(n)
	// Interleave the appended rows at random positions while preserving the
	// base ranking's relative order — the shape every incremental ranker
	// guarantees.
	fullRank = make([]int, 0, n+b)
	for _, ri := range baseRank {
		fullRank = append(fullRank, ri)
	}
	for ri := n; ri < n+b; ri++ {
		pos := rng.Intn(len(fullRank) + 1)
		fullRank = append(fullRank, 0)
		copy(fullRank[pos+1:], fullRank[pos:])
		fullRank[pos] = ri
	}
	return base, full, space, baseRank, fullRank
}

// assertIndexEqual compares two indexes structurally and behaviorally.
func assertIndexEqual(t *testing.T, got, want *Index) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: %d vs %d", got.NumRows(), want.NumRows())
	}
	for r := range want.rankOf {
		if got.rankOf[r] != want.rankOf[r] {
			t.Fatalf("rankOf[%d]: %d vs %d", r, got.rankOf[r], want.rankOf[r])
		}
	}
	for a := range want.cols {
		if len(got.cols[a]) != len(want.cols[a]) {
			t.Fatalf("cols[%d]: len %d vs %d", a, len(got.cols[a]), len(want.cols[a]))
		}
		for r := range want.cols[a] {
			if got.cols[a][r] != want.cols[a][r] {
				t.Fatalf("cols[%d][%d]: %d vs %d", a, r, got.cols[a][r], want.cols[a][r])
			}
		}
	}
	for a := range want.postings {
		if len(got.postings[a]) != len(want.postings[a]) {
			t.Fatalf("attr %d: %d values vs %d", a, len(got.postings[a]), len(want.postings[a]))
		}
		for v := range want.postings[a] {
			g, w := got.postings[a][v], want.postings[a][v]
			if len(g) != len(w) {
				t.Fatalf("postings[%d][%d]: len %d vs %d", a, v, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("postings[%d][%d][%d]: %d vs %d", a, v, i, g[i], w[i])
				}
			}
		}
	}
}

// TestExtendMatchesBuild: the derived index must be structurally identical
// to a from-scratch Build over the appended input, and SizeBytes must count
// the rank columns of both.
func TestExtendMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(60)
		b := rng.Intn(25)
		attrs := 1 + rng.Intn(4)
		card := 1 + rng.Intn(4)
		base, full, space, baseRank, fullRank := randAppendCase(rng, n, b, attrs, card)

		old := Build(base, space, baseRank)
		got := old.Extend(full, space, fullRank)
		want := Build(full, space, fullRank)
		assertIndexEqual(t, got, want)
		// SizeBytes counts the rank columns: 4 bytes per code, n+b codes
		// per attribute, plus one slice header per column.
		for _, ix := range []*Index{got, want} {
			noCols := *ix
			noCols.cols = nil
			if diff, cols := ix.SizeBytes()-noCols.SizeBytes(), int64((n+b)*attrs*4+attrs*24); diff != cols {
				t.Fatalf("trial %d: SizeBytes counts %d bytes of columns, want %d", trial, diff, cols)
			}
		}
	}
}

// TestExtendLeavesParentIntact: copy-on-write means the parent index keeps
// answering exactly as before the extension — snapshot isolation for
// in-flight readers.
func TestExtendLeavesParentIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, b := 50, 20
	base, full, space, baseRank, fullRank := randAppendCase(rng, n, b, 3, 3)
	old := Build(base, space, baseRank)
	pristine := Build(base, space, baseRank)
	_ = old.Extend(full, space, fullRank)
	assertIndexEqual(t, old, pristine)
}

// TestExtendAliasesUntouchedLists: a batch landing entirely at the bottom
// of the ranking shifts nothing, so every posting list of a value absent
// from the batch must be shared with the parent, not copied.
func TestExtendAliasesUntouchedLists(t *testing.T) {
	space := &pattern.Space{Names: []string{"g"}, Cards: []int{3}}
	base := [][]int32{{0}, {1}, {0}, {1}}
	baseRank := []int{0, 1, 2, 3}
	old := Build(base, space, baseRank)

	full := append(append([][]int32{}, base...), []int32{2}, []int32{2})
	fullRank := []int{0, 1, 2, 3, 4, 5} // appended rows at the bottom
	got := old.Extend(full, space, fullRank)

	for v := 0; v < 2; v++ {
		o, g := old.Postings(0, int32(v)), got.Postings(0, int32(v))
		if len(o) == 0 || len(g) != len(o) || &g[0] != &o[0] {
			t.Fatalf("value %d: untouched list not aliased", v)
		}
	}
	if want := []int32{4, 5}; len(got.Postings(0, 2)) != 2 || got.Postings(0, 2)[0] != want[0] || got.Postings(0, 2)[1] != want[1] {
		t.Fatalf("new value postings = %v, want %v", got.Postings(0, 2), want)
	}
}

// TestExtendGrownCardinality: the derived index accepts a space whose
// cardinalities grew (the rebuild-free path never feeds it one, but the
// structure must not assume old shapes).
func TestExtendGrownCardinality(t *testing.T) {
	oldSpace := &pattern.Space{Names: []string{"g"}, Cards: []int{2}}
	base := [][]int32{{0}, {1}}
	old := Build(base, oldSpace, []int{1, 0})

	newSpace := &pattern.Space{Names: []string{"g"}, Cards: []int{3}}
	full := [][]int32{{0}, {1}, {2}}
	fullRank := []int{2, 1, 0}
	got := old.Extend(full, newSpace, fullRank)
	want := Build(full, newSpace, fullRank)
	assertIndexEqual(t, got, want)
}

// TestExtendEmptyBatch: a zero-row batch with an unchanged ranking aliases
// everything.
func TestExtendEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base, _, space, baseRank, _ := randAppendCase(rng, 30, 0, 2, 3)
	old := Build(base, space, baseRank)
	got := old.Extend(base, space, baseRank)
	assertIndexEqual(t, got, old)
	for a := range old.postings {
		for v := range old.postings[a] {
			o, g := old.postings[a][v], got.postings[a][v]
			if len(o) > 0 && &o[0] != &g[0] {
				t.Fatalf("empty batch copied postings[%d][%d]", a, v)
			}
		}
	}
}
