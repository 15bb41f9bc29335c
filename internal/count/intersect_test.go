package count

import (
	"math/rand"
	"reflect"
	"testing"

	"rankfair/internal/pattern"
)

// naiveIntersect is the reference set intersection over ascending lists.
func naiveIntersect(a, b []int32) []int32 {
	inB := make(map[int32]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	out := []int32{}
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

// randAscending draws an ascending duplicate-free list from [0, domain).
func randAscending(rng *rand.Rand, domain, maxLen int) []int32 {
	n := rng.Intn(maxLen + 1)
	if n > domain {
		n = domain
	}
	seen := make(map[int32]bool, n)
	for len(seen) < n {
		seen[int32(rng.Intn(domain))] = true
	}
	out := make([]int32, 0, n)
	for v := int32(0); int(v) < domain; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

func TestIntersectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		domain := 1 + rng.Intn(200)
		a := randAscending(rng, domain, 60)
		// Lopsided lengths on a third of the trials to force the galloping
		// path (gallopRatio).
		maxB := 60
		if trial%3 == 0 {
			maxB = domain
		}
		b := randAscending(rng, domain, maxB)
		want := naiveIntersect(a, b)
		got := Intersect(a, b)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Intersect(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
		// Symmetry and append-into semantics.
		pre := []int32{-7}
		into := IntersectInto(pre, b, a)
		if !reflect.DeepEqual(into[1:], want) || into[0] != -7 {
			t.Fatalf("trial %d: IntersectInto mangled dst: %v", trial, into)
		}
	}
}

func TestIntersectEdgeCases(t *testing.T) {
	if got := Intersect(nil, []int32{1, 2}); len(got) != 0 {
		t.Errorf("nil ∩ list = %v", got)
	}
	if got := Intersect([]int32{5}, []int32{1, 2, 3}); len(got) != 0 {
		t.Errorf("disjoint ranges = %v", got)
	}
	// Galloping past the end of the long list.
	long := make([]int32, 100)
	for i := range long {
		long[i] = int32(2 * i)
	}
	if got := Intersect([]int32{0, 97, 198, 500}, long); !reflect.DeepEqual(got, []int32{0, 198}) {
		t.Errorf("gallop overshoot: %v", got)
	}
}

// TestIntersectPostingsMatchesMatchRanks cross-checks the two match-set
// derivations on the index: progressive galloping intersection vs the
// probe-and-verify of MatchRanks.
func TestIntersectPostingsMatchesMatchRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nAttrs := 1 + rng.Intn(4)
		space := &pattern.Space{Names: make([]string, nAttrs), Cards: make([]int, nAttrs)}
		for a := range space.Cards {
			space.Names[a] = string(rune('A' + a))
			space.Cards[a] = 1 + rng.Intn(4)
		}
		nRows := 1 + rng.Intn(120)
		rows := make([][]int32, nRows)
		for i := range rows {
			r := make([]int32, nAttrs)
			for a := range r {
				r[a] = int32(rng.Intn(space.Cards[a]))
			}
			rows[i] = r
		}
		ix := Build(rows, space, rng.Perm(nRows))
		for arity := 0; arity <= nAttrs; arity++ {
			p := pattern.Empty(nAttrs)
			for a := 0; a < arity; a++ {
				p[a] = int32(rng.Intn(space.Cards[a]))
			}
			want := ix.MatchRanks(p)
			got := ix.IntersectPostings(p)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: IntersectPostings(%v) = %v, MatchRanks %v", trial, p, got, want)
			}
		}
		// Out-of-domain bound values match nothing on both paths.
		bad := pattern.Empty(nAttrs).With(0, int32(space.Cards[0]))
		if got := ix.IntersectPostings(bad); len(got) != 0 {
			t.Fatalf("out-of-domain pattern matched %v", got)
		}
	}
}

// TestMatchRanksIntoMatchesIntersections holds the column probe behind
// MatchRanksInto to the galloping IntersectPostings reference over built
// and extended indexes, for patterns binding zero, one or several
// attributes, some with out-of-domain values. It also pins the append
// contract: the prefix of dst survives.
func TestMatchRanksIntoMatchesIntersections(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		attrs := 1 + rng.Intn(4)
		base, full, space, baseRank, fullRank := randAppendCase(rng, 1+rng.Intn(150), rng.Intn(40), attrs, 1+rng.Intn(4))
		indexes := map[string]*Index{
			"built":    Build(full, space, fullRank),
			"extended": Build(base, space, baseRank).Extend(full, space, fullRank),
		}
		for name, ix := range indexes {
			for pi := 0; pi < 30; pi++ {
				p := randPattern(rng, space, 0.3+0.1*float64(pi%5))
				if pi%7 == 0 {
					a := rng.Intn(attrs)
					p[a] = []int32{int32(space.Cards[a]), 99, -2}[rng.Intn(3)]
				}
				want := ix.IntersectPostings(p)
				got := ix.MatchRanksInto([]int32{-7}, p)
				if got[0] != -7 {
					t.Fatalf("%s trial %d: MatchRanksInto(%v) overwrote the prefix of dst", name, trial, p)
				}
				got = got[1:]
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d: MatchRanksInto(%v) = %v, IntersectPostings %v", name, trial, p, got, want)
				}
			}
		}
	}
}
