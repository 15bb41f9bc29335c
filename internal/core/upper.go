package core

import (
	"context"

	"rankfair/internal/pattern"
)

// The paper's body focuses on lower bounds; Section III ("Upper bounds")
// observes that for bounds from above the informative answers are the
// *most specific substantial* patterns: if black females exceed the upper
// bound then so do blacks and females, so the most specific description is
// reported. This file implements that variant for both fairness measures
// with ITERTD-style per-k searches.
//
// Interpretation implemented here: report patterns p with s_D(p) ≥ τs and
// s_{R_k(D)}(p) above the bound such that no proper superset of p also has
// size ≥ τs and count above the bound (the most specific members of the
// substantial-and-exceeding set).

// iterTDGlobalUpper detects, for each k, the most specific substantial
// patterns whose top-k count exceeds U_k. Exceeding is downward closed
// (every subset of an exceeding pattern exceeds too), so the search prunes
// subtrees whose root no longer exceeds, and maximality reduces to having
// no exceeding pattern-graph child.
func iterTDGlobalUpper(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	eng := newEngine(in)
	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		u := s.upperAt(k)
		cands := collectExceeding(cn, eng, s.MinSize, k, st, ss, func(sD, cnt int) (candidate, descend bool) {
			c := cnt > u
			return c, c // prune when not exceeding: children have count <= cnt
		})
		groups := mostSpecificByChildLookup(in.Space, cands)
		sortPatterns(groups)
		return groups
	})
}

// iterTDPropUpper detects, for each k, the most specific substantial
// patterns whose top-k count exceeds β·s_D(p)·k/|D|. Exceeding is not
// downward closed for the proportional measure, so the search only prunes
// subtrees that provably contain no candidate (count ≤ β·τs·k/|D| bounds
// every descendant's count below every descendant's bound) and maximality
// uses a full superset check.
func iterTDPropUpper(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	n := float64(len(in.Rows))
	eng := newEngine(in)
	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		floor := s.Beta * float64(s.MinSize) * float64(k) / n
		cands := collectExceeding(cn, eng, s.MinSize, k, st, ss, func(sD, cnt int) (candidate, descend bool) {
			c := float64(cnt) > s.Beta*float64(sD)*float64(k)/n
			return c, float64(cnt) > floor
		})
		groups := pattern.MostSpecific(cands)
		sortPatterns(groups)
		return groups
	})
}

// collectExceeding runs a top-down search that prunes on the size threshold
// and on the classify callback's descend decision, returning every pattern
// classified as a candidate. The search polls cn once per node and returns
// early when the caller's context is canceled. Frontier match sets live in
// the traversal's ring arena (see bfs.go); only candidates and descents
// materialize a Pattern.
func collectExceeding(cn *canceler, eng *engine, minSize, k int, stats *Stats, ss *SearchStats, classify func(sD, cnt int) (candidate, descend bool)) []Pattern {
	stats.FullSearches++
	var cands []Pattern
	q := eng.newBFS()
	defer q.close()
	for q.more() {
		if cn.stopped() {
			return nil
		}
		u := q.pop()
		stats.NodesExamined++
		sD := len(u.m.all)
		if sD < minSize {
			ss.prunedSize()
			continue
		}
		candidate, descend := classify(sD, eng.topCount(u.m, k))
		var p pattern.Pattern
		if candidate || descend {
			p = q.pat(&u)
		}
		if candidate {
			ss.frontier(p)
			cands = append(cands, p)
		}
		if descend {
			ss.expanded()
			q.expand(&u, p)
		} else {
			ss.prunedBound()
		}
	}
	return cands
}

// mostSpecificByChildLookup filters a downward-closed candidate set to its
// maximal members: candidates none of whose pattern-graph children is a
// candidate.
func mostSpecificByChildLookup(space *pattern.Space, cands []Pattern) []Pattern {
	in := make(map[string]bool, len(cands))
	for _, p := range cands {
		in[p.Key()] = true
	}
	var out []Pattern
	for _, p := range cands {
		maximal := true
	scan:
		for a := 0; a < space.NumAttrs(); a++ {
			if p[a] != pattern.Unbound {
				continue
			}
			for v := 0; v < space.Cards[a]; v++ {
				if in[p.With(a, int32(v)).Key()] {
					maximal = false
					break scan
				}
			}
		}
		if maximal {
			out = append(out, p)
		}
	}
	return out
}
