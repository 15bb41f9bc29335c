package core

import (
	"context"

	"rankfair/internal/pattern"
)

// The paper's body focuses on lower bounds; Section III ("Upper bounds")
// observes that for bounds from above the informative answers are the
// *most specific substantial* patterns: if black females exceed the upper
// bound then so do blacks and females, so the most specific description is
// reported. It also sketches two further report semantics ("our solutions
// can be adjusted to support such problem definition (and other
// definitions such as most general for upper bound, and the most specific
// for lower bound)"). This file holds the ITERTD searches of the four
// variants (for global-upper, the baseline of its incremental search) and
// the output rule of that incremental search.
//
// Interpretation implemented here: report patterns p with s_D(p) ≥ τs and
// s_{R_k(D)}(p) above the bound such that no proper superset of p also has
// size ≥ τs and count above the bound (the most specific members of the
// substantial-and-exceeding set).
//
// The structure of the variants follows from count monotonicity
// (specializing a pattern never increases its count):
//
//   - exceeding a global upper bound is downward closed (every subset of
//     an exceeding pattern exceeds too), so the search prunes subtrees
//     whose root no longer exceeds, maximality reduces to having no
//     exceeding pattern-graph child, and the most *general* exceeding
//     patterns bind a single attribute;
//   - exceeding the proportional upper bound β·s_D(p)·k/|D| is not
//     downward closed, so the search only prunes subtrees that provably
//     contain no candidate (count ≤ β·τs·k/|D| bounds every descendant's
//     count below every descendant's bound) and maximality uses a full
//     superset check;
//   - falling below a lower bound is upward closed among substantial
//     patterns, so a below pattern is most *specific* exactly when none of
//     its pattern-graph children is substantial (a substantial child would
//     be below too), that is, when none of them is below. Below-ness is not
//     prunable top-down (an above-bound parent can have below children),
//     so only the size threshold prunes.

// classifier decides, for a substantial node of size sD and top-k count
// cnt at k, whether it is a candidate and whether the search descends
// below it. n is |D|.
type classifier func(s *Spec, n float64, k, sD, cnt int) (candidate, descend bool)

// exceedsUpper tests against U_k, pruning where the node does not exceed
// (its children have count <= cnt).
func exceedsUpper(s *Spec, _ float64, k, _, cnt int) (candidate, descend bool) {
	c := cnt > s.upperAt(k)
	return c, c
}

// exceedsPropUpper tests against β·s_D(p)·k/|D|, pruning where the count is
// at most β·τs·k/|D|.
func exceedsPropUpper(s *Spec, n float64, k, sD, cnt int) (candidate, descend bool) {
	return float64(cnt) > s.Beta*float64(sD)*float64(k)/n, float64(cnt) > s.Beta*float64(s.MinSize)*float64(k)/n
}

// belowLower tests against L_k and always descends.
func belowLower(s *Spec, _ float64, k, _, cnt int) (candidate, descend bool) {
	return cnt < s.lowerAt(k), true
}

// collect returns the ITERTD search of a variant: for each k, one top-down
// search collects the candidates test finds and keep reduces them to the
// reported groups.
func collect(test classifier, keep func(space *pattern.Space, cands []Pattern) []Pattern) searchFunc {
	return func(ctx context.Context, in *Input, s *Spec) (*Result, error) {
		eng := newEngine(in)
		n := float64(len(in.Rows))
		return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
			// The traversal returns to its pool only after keep: keep
			// allocates enough to trigger collections, which would empty
			// the pool and make the next k regrow its queue and ring.
			q := eng.newBFS()
			defer q.close()
			groups := keep(in.Space, collectExceeding(cn, q, s, n, k, test, st, ss))
			sortPatterns(groups)
			return groups
		})
	}
}

func mostSpecific(_ *pattern.Space, cands []Pattern) []Pattern { return pattern.MostSpecific(cands) }
func mostGeneral(_ *pattern.Space, cands []Pattern) []Pattern  { return pattern.MostGeneral(cands) }

// collectExceeding runs the top-down search of the fresh traversal q,
// pruning on the size threshold and on test's descend decision, and
// returns every pattern test classifies as a candidate. The search polls
// cn once per node and returns early when the caller's context is
// canceled. Frontier match sets live in the traversal's ring arena (see
// bfs.go); only candidates and descents materialize a Pattern.
func collectExceeding(cn *canceler, q *bfs, s *Spec, n float64, k int, test classifier, stats *Stats, ss *SearchStats) []Pattern {
	stats.FullSearches++
	var cands []Pattern
	for q.more() {
		if cn.stopped() {
			return nil
		}
		u := q.pop()
		stats.NodesExamined++
		sD := len(u.m.all)
		if sD < s.MinSize {
			ss.prunedSize()
			continue
		}
		candidate, descend := test(s, n, k, sD, q.eng.topCount(u.m, k))
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
		if !hasCandidateChild(space, p, func(c Pattern) bool { return in[c.Key()] }) {
			out = append(out, p)
		}
	}
	return out
}

// hasCandidateChild reports whether isCand holds for any pattern-graph
// child of p (one extra attribute-value pair, any attribute).
func hasCandidateChild(space *pattern.Space, p Pattern, isCand func(Pattern) bool) bool {
	for a := 0; a < space.NumAttrs(); a++ {
		if p[a] != pattern.Unbound {
			continue
		}
		for v := 0; v < space.Cards[a]; v++ {
			if isCand(p.With(a, int32(v))) {
				return true
			}
		}
	}
	return false
}

// specificSet is the output rule of the incremental global upper-bound
// search: the candidates (explored nodes whose count exceeds U_k) and
// their most specific members. Candidates only join within a segment of
// constant U_k, and a rebuild starts a new set. An admitted candidate is
// maximal unless one of its pattern-graph children is already a
// candidate, and it stops its candidate pattern-graph parents being
// maximal, so the maximal set does not depend on the admission order.
type specificSet struct {
	space      *pattern.Space
	candidates map[string]*node
	maximal    map[*node]struct{}
}

func newSpecificSet(space *pattern.Space) *specificSet {
	return &specificSet{space: space, candidates: make(map[string]*node), maximal: make(map[*node]struct{})}
}

func (s *specificSet) add(nd *node) {
	s.candidates[nd.p.Key()] = nd
	if !hasCandidateChild(s.space, nd.p, func(c Pattern) bool { return s.candidates[c.Key()] != nil }) {
		s.maximal[nd] = struct{}{}
	}
	for _, parent := range nd.p.GraphParents() {
		if parent.NumAttrs() == 0 {
			continue
		}
		if pn, ok := s.candidates[parent.Key()]; ok {
			delete(s.maximal, pn)
		}
	}
}

// remove is never called: counts only grow within a segment, so a
// candidate never stops exceeding U_k.
func (s *specificSet) remove(*node) {
	panic("core: an upper-bound candidate left the candidate set")
}

func (s *specificSet) settle(context.Context, int) bool { return false }

func (s *specificSet) ndom() int { return 0 }

func (s *specificSet) emit() []Pattern {
	out := make([]Pattern, 0, len(s.maximal))
	for nd := range s.maximal {
		out = append(out, nd.p)
	}
	sortPatterns(out)
	return out
}
