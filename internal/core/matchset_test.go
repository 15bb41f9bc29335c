package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"rankfair/internal/core"
	"rankfair/internal/count"
	"rankfair/internal/synth"
)

// TestChildSplitMatchesColumn checks the engine's child split on random
// match sets of a COMPAS-shaped index, at every attribute: children are
// entered in a random order, each entry followed by a nested split, a
// descent into one of its children and a scribbled arena, as a subtree
// does between sibling descents. Every child list must be the ascending
// entries of the parent whose column code is the child's value, and must
// stay intact until the split is released; LazyScatters must count each
// split that entered a child once.
func TestChildSplitMatchesColumn(t *testing.T) {
	in, err := synth.COMPAS(1500, 3).Input()
	if err != nil {
		t.Fatal(err)
	}
	ix := count.Build(in.Rows, in.Space, in.Ranking)
	in.Index = ix
	sp := core.NewChildSplitter(in)
	defer sp.Close()
	rng := rand.New(rand.NewSource(1))
	want := func(m []int32, a, v int) []int32 {
		col := ix.Column(a)
		out := []int32{}
		for _, r := range m {
			if int(col[r]) == v {
				out = append(out, r)
			}
		}
		return out
	}
	check := func(what string, got, want []int32) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: got %d entries %v…, want %d entries %v…", what, len(got), head(got), len(want), head(want))
		}
	}
	n, cards := len(in.Ranking), in.Space.Cards
	var splits int64
	for trial := 0; trial < 40; trial++ {
		keep := rng.Float64()
		var m []int32
		for r := 0; r < n; r++ {
			if rng.Float64() < keep {
				m = append(m, int32(r))
			}
		}
		for a := range cards {
			cs := sp.Split(m, a, 1+rng.Intn(n))
			entered := rng.Perm(cards[a])[:rng.Intn(cards[a]+1)]
			got := make(map[int][]int32, len(entered))
			for _, v := range entered {
				w := want(m, a, v)
				if cs.Size(v) != len(w) {
					t.Fatalf("trial %d attr %d: size(%d) = %d, want %d", trial, a, v, cs.Size(v), len(w))
				}
				child := cs.At(v)
				check("child", child, w)
				got[v] = child
				// A sibling's subtree: split the child at a later (or, at
				// the last attribute, an earlier) attribute, enter one of
				// its children, and scribble over the arena it returns.
				b := (a + 1 + rng.Intn(len(cards)-1)) % len(cards)
				nested := sp.Split(child, b, 1+rng.Intn(n))
				u := rng.Intn(cards[b])
				check("nested child", nested.At(u), want(child, b, u))
				sp.Scribble(1 + rng.Intn(2*n))
				sp.Release(nested)
				splits++
				check("child after a nested subtree", child, w)
			}
			for v, child := range got {
				check("child at release", child, want(m, a, v))
			}
			if len(entered) > 0 {
				splits++
			}
			sp.Release(cs)
			if sp.LazyScatters() != splits {
				t.Fatalf("trial %d attr %d: LazyScatters = %d after %d entered splits", trial, a, sp.LazyScatters(), splits)
			}
		}
	}
}

func head(s []int32) []int32 { return s[:min(len(s), 8)] }
