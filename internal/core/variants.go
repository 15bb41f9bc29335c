package core

import (
	"context"

	"rankfair/internal/pattern"
)

// Section III sketches two further report semantics beyond the ones the
// paper's body develops ("our solutions can be adjusted to support such
// problem definition (and other definitions such as most general for upper
// bound, and the most specific for lower bound)"). This file implements
// both for the global measure.
//
// Their structure follows from count monotonicity (specializing a pattern
// never increases its count):
//
//   - exceeding an upper bound is downward closed, so the most *general*
//     exceeding patterns bind a single attribute;
//   - falling below a lower bound is upward closed among substantial
//     patterns, so a below pattern is most *specific* exactly when none of
//     its pattern-graph children clears the size threshold.

// iterTDUpperGeneral reports, for each k, the most general patterns with
// size >= τs whose top-k count exceeds U_k. Because every subset of an
// exceeding pattern also exceeds, the result consists of single-attribute
// patterns; the function computes it generically (collect the
// downward-closed candidate set, filter to its most general members) so it
// stays correct for any future measure plugged into the same skeleton.
func iterTDUpperGeneral(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	eng := newEngine(in)
	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		u := s.upperAt(k)
		cands := collectExceeding(cn, eng, s.MinSize, k, st, ss, func(sD, cnt int) (candidate, descend bool) {
			c := cnt > u
			return c, c
		})
		groups := pattern.MostGeneral(cands)
		sortPatterns(groups)
		return groups
	})
}

// iterTDLowerSpecific reports, for each k, the most specific substantial
// patterns whose top-k count falls below L_k: below patterns p with
// s_D(p) >= τs none of whose pattern-graph children is substantial (any
// substantial child is automatically below as well, by count
// monotonicity, so it would always dominate p).
func iterTDLowerSpecific(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	eng := newEngine(in)
	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		l := s.lowerAt(k)
		// Traverse every substantial pattern: below-ness is not prunable
		// top-down (an above-bound parent can have below children), so
		// only the size threshold prunes.
		substantial := make(map[string]bool)
		var below []Pattern
		st.FullSearches++
		q := eng.newBFS()
		defer q.close()
		for q.more() {
			if cn.stopped() {
				return nil
			}
			u := q.pop()
			st.NodesExamined++
			if len(u.m.all) < s.MinSize {
				ss.prunedSize()
				continue
			}
			p := q.pat(&u)
			substantial[p.Key()] = true
			if eng.topCount(u.m, k) < l {
				ss.frontier(p)
				below = append(below, p)
			}
			ss.expanded()
			q.expand(&u, p)
		}
		var groups []Pattern
		for _, p := range below {
			if !hasSubstantialChild(in.Space, p, substantial) {
				groups = append(groups, p)
			}
		}
		sortPatterns(groups)
		return groups
	})
}

// hasSubstantialChild reports whether any pattern-graph child of p (one
// extra attribute-value pair, any attribute) is in the substantial set.
func hasSubstantialChild(space *pattern.Space, p Pattern, substantial map[string]bool) bool {
	for a := 0; a < space.NumAttrs(); a++ {
		if p[a] != pattern.Unbound {
			continue
		}
		for v := 0; v < space.Cards[a]; v++ {
			if substantial[p.With(a, int32(v)).Key()] {
				return true
			}
		}
	}
	return false
}
