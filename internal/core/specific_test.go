package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rankfair/internal/pattern"
)

// downwardClosure returns the distinct non-empty subsets of ps, the shape
// of candidate set specificSet serves (every graph parent of a candidate
// is a candidate), in level order.
func downwardClosure(ps []Pattern) []Pattern {
	seen := make(map[string]bool)
	var out []Pattern
	var rec func(p Pattern)
	rec = func(p Pattern) {
		if p.NumAttrs() == 0 || seen[p.Key()] {
			return
		}
		seen[p.Key()] = true
		out = append(out, p)
		for _, q := range p.GraphParents() {
			rec(q)
		}
	}
	for _, p := range ps {
		rec(p)
	}
	sortPatterns(out)
	return out
}

// TestSpecificSetOrderIndependent admits random candidate sets in level
// order, in reverse level order (every child before its graph parents)
// and shuffled: the maximal set is the same each time and equals
// pattern.MostSpecific's. Each trial draws a downward-closed set, the
// shape of the global upper bound's candidates, and a random subset of
// it, which need not hold a candidate's graph parents (the proportional
// upper bound's candidates, whose bound shrinks with s_D). Codes step by
// 1, 128 or 16384 with the trial, so keys hold one-, two- and three-byte
// values.
func TestSpecificSetOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nAttrs := 2 + rng.Intn(4)
		seeds := make([]Pattern, 1+rng.Intn(5))
		for i := range seeds {
			p := pattern.Empty(nAttrs)
			for a := range p {
				if rng.Intn(2) == 0 {
					p[a] = int32(rng.Intn(3)) << (7 * (trial % 3))
				}
			}
			if p.NumAttrs() == 0 {
				p[rng.Intn(nAttrs)] = 0
			}
			seeds[i] = p
		}
		closed := downwardClosure(seeds)
		var sparse []Pattern
		for _, p := range closed {
			if rng.Intn(2) == 0 {
				sparse = append(sparse, p)
			}
		}
		checkSpecificSet(t, rng, closed, fmt.Sprintf("trial %d, closed", trial))
		checkSpecificSet(t, rng, sparse, fmt.Sprintf("trial %d, sparse", trial))
	}
}

// checkSpecificSet admits cands, given in level order, in three orders and
// compares each maximal set with pattern.MostSpecific's.
func checkSpecificSet(t *testing.T, rng *rand.Rand, cands []Pattern, label string) {
	t.Helper()
	want := pattern.MostSpecific(cands)
	sortPatterns(want)
	reversed := slices.Clone(cands)
	slices.Reverse(reversed)
	shuffled := slices.Clone(cands)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, order := range map[string][]Pattern{"level": cands, "reverse": reversed, "shuffled": shuffled} {
		s := newSpecificSet()
		for _, p := range order {
			s.admit(p)
		}
		got := s.groups()
		sortPatterns(got)
		if !slices.EqualFunc(got, want, Pattern.Equal) {
			t.Fatalf("%s, %s order of %v: maximal %v, MostSpecific %v", label, name, cands, got, want)
		}
	}
}
