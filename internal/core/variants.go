package core

import (
	"context"

	"rankfair/internal/pattern"
)

// ITERTD (Section IV-A) re-runs the top-down search of Algorithm 1 for
// every k. This file holds that one per-k traversal, the output rules the
// rows of Search's table pair it with, and specificSet, the output rule
// the incremental search shares for the global upper bound.
//
// The paper's body focuses on lower bounds, whose informative answers are
// the most general biased patterns. Section III ("Upper bounds") observes
// that for bounds from above the informative answers are the *most
// specific substantial* patterns: if black females exceed the upper bound
// then so do blacks and females, so the most specific description is
// reported. It also sketches two further report semantics ("our solutions
// can be adjusted to support such problem definition (and other
// definitions such as most general for upper bound, and the most specific
// for lower bound)"). One traversal serves all of them: a substantial node
// is a candidate when it lands on the reported side of the measure's bound
// (below a lower bound, above an upper one), and the row's report
// semantics picks the output rule that reduces the candidates to the
// reported groups.
//
// The descent follows from count monotonicity (specializing a pattern never
// increases its count):
//
//   - under a lower bound the most general candidates dominate everything
//     below them, so the search stops at a candidate, and subsetFilter,
//     applied online in FIFO order, tells Res from the dominated DRes;
//   - falling below a lower bound is upward closed among substantial
//     patterns (a substantial child of a below pattern is below too), but
//     an above-bound node can have below children, so for the most
//     specific below patterns only the size threshold prunes;
//   - under an upper bound, a node whose score does not exceed the bound
//     of a τs-sized node has no candidate below it (a substantial
//     descendant's count is no larger and its bound no smaller), so the
//     search stops there. Exceeding U_k is downward closed, so the most
//     general exceeding patterns bind a single attribute and the most
//     specific ones are specificSet's; exceeding β·s_D(p)·k/|D| is not,
//     so prop-upper keeps the full superset check of pattern.MostSpecific.

// report is a row's report semantics: the most general or the most
// specific candidates.
type report bool

const (
	reportGeneral  report = false
	reportSpecific report = true
)

// perKRule reduces the candidates of one per-k search, admitted in FIFO
// (level) order, to the groups reported at that k.
type perKRule interface {
	// admit takes candidate p and reports whether it joined the set; false
	// means p is dominated.
	admit(p Pattern) bool
	groups() []Pattern
}

// rule returns r's output rule under bound b.
func (r report) rule(b *bound) perKRule {
	switch {
	case r == reportGeneral && !b.upper():
		return newSubsetFilter()
	case r == reportGeneral:
		return &filtered{keep: pattern.MostGeneral}
	case b.kind == boundPropUpper:
		return &filtered{keep: pattern.MostSpecific}
	}
	return newSpecificSet()
}

// collect returns the ITERTD search reporting r's groups of the measure's
// candidates: one top-down search per k, spread over s.Workers goroutines.
// Unlike GLOBALBOUNDS it accepts arbitrary (including non-monotone)
// global bound sequences.
func collect(r report) searchFunc {
	return func(ctx context.Context, in *Input, s *Spec) (*Result, error) {
		eng := newEngine(in)
		b := newBound(in, s)
		return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
			// The traversal returns to its pool only after the rule's
			// groups: the filters allocate enough to trigger collections,
			// which would empty the pool and make the next k regrow its
			// queue and ring.
			q := eng.newBFS()
			defer q.close()
			groups := topDown(cn, q, &b, r, k, st, ss)
			sortPatterns(groups)
			return groups
		})
	}
}

// topDown is Algorithm 1 at k over the fresh traversal q: it prunes on the
// size threshold, hands every candidate to r's output rule, descends
// wherever r's groups can still lie below, and returns the rule's groups.
// It polls cn once per node and returns nil when the caller's context was
// canceled. Frontier match sets live in the traversal's ring arena (see
// bfs.go); only candidates and descents materialize a Pattern.
func topDown(cn *canceler, q *bfs, b *bound, r report, k int, stats *Stats, ss *SearchStats) []Pattern {
	stats.FullSearches++
	rule := r.rule(b)
	minSize := b.spec.MinSize
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
		score := b.score(u.m, k)
		candidate := b.stops(sD, score, k) != b.upper()
		descend := !candidate || r == reportSpecific
		if b.upper() {
			descend = !b.stops(minSize, score, k)
		}
		var p Pattern
		if candidate || descend {
			p = q.pat(&u)
		}
		if candidate {
			if rule.admit(p) {
				ss.frontier(p)
			} else {
				ss.addDominated(1)
			}
		}
		if descend {
			ss.expanded()
			q.expand(&u, p)
		} else {
			ss.prunedBound()
		}
	}
	return rule.groups()
}

// subsetFilter is the most general candidates of a lower bound, admitted
// in FIFO order so every more general candidate precedes p: p joins Res
// unless a member is a proper subset of it. An attribute-bitmask prefilter
// compares one uint64 per member and only falls through to ProperSubsetOf
// when the attribute sets can nest.
type subsetFilter struct {
	res   []Pattern
	masks []uint64
}

// newSubsetFilter returns a filter presized for a typical biased frontier,
// so the searches of a staircase sweep admit their first patterns without
// append-growth reallocations.
func newSubsetFilter() *subsetFilter {
	const hint = 64
	return &subsetFilter{res: make([]Pattern, 0, hint), masks: make([]uint64, 0, hint)}
}

func (f *subsetFilter) admit(p Pattern) bool {
	pm := attrMask(p)
	for i, qm := range f.masks {
		if qm&^pm == 0 && f.res[i].ProperSubsetOf(p) {
			return false
		}
	}
	f.res = append(f.res, p)
	f.masks = append(f.masks, pm)
	return true
}

func (f *subsetFilter) groups() []Pattern { return f.res }

// filtered collects every candidate and reduces them with keep at the end.
type filtered struct {
	cands []Pattern
	keep  func([]Pattern) []Pattern
}

func (f *filtered) admit(p Pattern) bool { f.cands = append(f.cands, p); return true }

func (f *filtered) groups() []Pattern { return f.keep(f.cands) }

// specificSet is the most specific members of a candidate set that holds
// every substantial pattern-graph parent of a candidate: each admitted
// candidate marks its graph parents, and a candidate is most specific iff
// it is unmarked. Marks only accumulate, so the set does not depend on the
// admission order. It serves the global-upper and lower-specific ITERTD
// rows and, as the output rule of the incremental global upper-bound
// search, one segment of constant U_k (counts only grow within it, so
// candidates only join; a rebuild starts a new set).
type specificSet struct {
	marked  map[string]bool
	maximal map[string]Pattern
}

func newSpecificSet() *specificSet {
	return &specificSet{marked: make(map[string]bool), maximal: make(map[string]Pattern)}
}

func (s *specificSet) admit(p Pattern) bool {
	for _, parent := range p.GraphParents() {
		key := parent.Key()
		s.marked[key] = true
		delete(s.maximal, key)
	}
	if key := p.Key(); !s.marked[key] {
		s.maximal[key] = p
	}
	return true
}

func (s *specificSet) groups() []Pattern {
	out := make([]Pattern, 0, len(s.maximal))
	for _, p := range s.maximal {
		out = append(out, p)
	}
	return out
}

func (s *specificSet) add(nd *node) { s.admit(nd.p) }

// remove is never called: a candidate never stops exceeding U_k within a
// segment.
func (s *specificSet) remove(*node) {
	panic("core: an upper-bound candidate left the candidate set")
}

func (s *specificSet) settle(context.Context, int) bool { return false }

func (s *specificSet) ndom() int { return 0 }

func (s *specificSet) emit() []Pattern {
	out := s.groups()
	sortPatterns(out)
	return out
}
