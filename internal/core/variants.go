package core

import (
	"context"
	"encoding/binary"
	"slices"

	"rankfair/internal/pattern"
)

// ITERTD (Section IV-A) re-runs the top-down search of Algorithm 1 for
// every k. This file holds that one per-k traversal and the two output
// rules that reduce its candidates to the reported groups; one of them,
// specificSet, is also the incremental search's rule for the global upper
// bound.
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
// semantics picks the output rule:
//
//   - the most general candidates: subsetFilter over the candidates sorted
//     by generality level, so every proper subset of a candidate precedes
//     it;
//   - the most specific candidates: specificSet, which marks every proper
//     subset of each candidate.
//
// Both rules are pure functions of the candidate set, so the traversal is
// free to visit the lattice depth-first. It walks the search tree of
// Definition 4.1 on the engine's child split (childStats): the roots alias
// the posting lists, a node's children are tallied per attribute, a
// child's list is filtered from its parent's only when the walk enters
// that child, and the arena is marked and released per attribute, so the
// walk's scratch is one root-to-leaf path deep.
//
// The descent follows from count monotonicity (specializing a pattern never
// increases its count):
//
//   - a most general candidate dominates everything below it, so under
//     that rule the walk stops at a candidate;
//   - falling below a lower bound is upward closed among substantial
//     patterns (a substantial child of a below pattern is below too), but
//     an above-bound node can have below children, so for the most
//     specific below patterns only the size threshold prunes;
//   - under an upper bound, a node whose score does not exceed the bound
//     of a τs-sized node has no candidate below it (a substantial
//     descendant's count is no larger and its bound no smaller), so the
//     walk stops there too. Exceeding U_k is downward closed, so the most
//     general exceeding patterns bind a single attribute and the walk
//     examines only the roots; exceeding β·s_D(p)·k/|D| is not, which
//     specificSet's marking of every proper subset covers.

// report is a row's report semantics: the most general or the most
// specific candidates.
type report bool

const (
	reportGeneral  report = false
	reportSpecific report = true
)

// perKRule reduces the candidates of one per-k search to the groups
// reported at that k.
type perKRule interface {
	// admit takes candidate p and reports whether it joined the set; false
	// means p is dominated.
	admit(p Pattern) bool
	groups() []Pattern
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
			groups := topDown(cn, eng, &b, r, k, st, ss)
			sortPatterns(groups)
			return groups
		})
	}
}

// walk is one per-k traversal's state. It counts the paper's counters
// into ss; its searcher counts nothing, so the engine-shortcut counters
// of an ITERTD run stay 0.
type walk struct {
	sr    searcher
	cn    *canceler
	b     *bound
	r     report
	k     int
	stats *Stats
	ss    *SearchStats
	// p is the pattern of the node under examination, bound and unbound
	// in place; slab holds the candidates' patterns back to back.
	p    Pattern
	slab []int32
}

// topDown is Algorithm 1 at k: it walks the lattice depth-first, prunes
// on the size threshold, collects every candidate, descends wherever r's
// groups can still lie below, and returns r's groups of the candidates.
// It polls cn once per node and returns nil when the caller's context was
// canceled.
func topDown(cn *canceler, eng *engine, b *bound, r report, k int, stats *Stats, ss *SearchStats) []Pattern {
	stats.FullSearches++
	sr := eng.acquire()
	defer sr.close()
	w := walk{sr: sr, cn: cn, b: b, r: r, k: k, stats: stats, ss: ss,
		p: pattern.Empty(eng.in.Space.NumAttrs()), slab: sr.scr.slab[:0]}
	for a, card := range eng.in.Space.Cards {
		for v := 0; v < card; v++ {
			if cn.stopped() {
				return nil
			}
			m := matchSet{all: eng.ix.Postings(a, int32(v))}
			w.p[a] = int32(v)
			if w.visit(len(m.all), b.score(m, k)) {
				w.children(m, a+1)
			}
			w.p[a] = pattern.Unbound
		}
	}
	if cn.halted {
		return nil
	}
	groups := detach(r.groups(w.candidates(), ss))
	sr.scr.slab = w.slab
	return groups
}

// children visits the search-tree children of the node at w.p, whose
// match set is m; they bind an attribute from `from` on.
func (w *walk) children(m matchSet, from int) {
	cards := w.sr.in.Space.Cards
	for a := from; a < len(cards); a++ {
		mk := w.sr.mark()
		cs := w.sr.childStats(m, a, cards[a], w.k, w.b.weights)
		for v := 0; v < cards[a]; v++ {
			if w.cn.stopped() {
				return
			}
			w.p[a] = int32(v)
			if w.visit(cs.size(v), w.b.childScore(&cs, v)) {
				w.children(cs.at(v), a+1)
			}
			w.p[a] = pattern.Unbound
		}
		w.sr.release(mk)
	}
}

// visit examines the node at w.p, of size sD and score score: it records
// a candidate and reports whether the walk descends below the node.
func (w *walk) visit(sD int, score float64) bool {
	w.stats.NodesExamined++
	minSize := w.b.spec.MinSize
	if sD < minSize {
		w.ss.prunedSize()
		return false
	}
	candidate := w.b.stops(sD, score, w.k) != w.b.upper()
	if candidate {
		w.slab = append(w.slab, w.p...)
	}
	descend := !candidate || w.r == reportSpecific
	if w.b.upper() {
		descend = descend && !w.b.stops(minSize, score, w.k)
	}
	if descend {
		w.ss.expanded()
	} else {
		w.ss.prunedBound()
	}
	return descend
}

// candidates cuts the slab into the candidates' patterns.
func (w *walk) candidates() []Pattern {
	n := len(w.p)
	out := w.sr.scr.cands[:0]
	for i := 0; i < len(w.slab); i += n {
		out = append(out, Pattern(w.slab[i:i+n:i+n]))
	}
	w.sr.scr.cands = out
	return out
}

// detach copies groups into a slab of their own, so the reported groups
// leave the walk's slab free for the next k.
func detach(groups []Pattern) []Pattern {
	if len(groups) == 0 {
		return groups
	}
	n := len(groups[0])
	slab := make([]int32, len(groups)*n)
	for i, p := range groups {
		groups[i] = Pattern(slab[i*n : (i+1)*n : (i+1)*n])
		copy(groups[i], p)
	}
	return groups
}

// groups reduces one per-k search's candidates to r's groups, counting
// each admission at its level and each dominated candidate.
func (r report) groups(cands []Pattern, ss *SearchStats) []Pattern {
	var rule perKRule
	if r == reportGeneral {
		slices.SortStableFunc(cands, func(p, q Pattern) int { return p.NumAttrs() - q.NumAttrs() })
		rule = newSubsetFilter()
	} else {
		rule = newSpecificSet()
	}
	for _, p := range cands {
		if rule.admit(p) {
			ss.frontier(p)
		} else {
			ss.addDominated(1)
		}
	}
	return rule.groups()
}

// subsetFilter is the most general candidates, admitted in generality
// order so every more general candidate precedes p: p joins Res unless a
// member is a proper subset of it. An attribute-bitmask prefilter compares
// one uint64 per member and only falls through to ProperSubsetOf when the
// attribute sets can nest.
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

// specificSet is the most specific members of a candidate set: every
// admitted candidate marks its proper subsets, and a candidate is most
// specific iff it is unmarked. Admitting p marks p's graph parents, and
// the parents of each parent that was neither marked nor admitted, and so
// on up; the subsets of a marked or admitted key are marked already, so
// the marking stops there. Marks only accumulate, so the set is the same
// for every admission order, and it needs no candidate's graph parents to
// be candidates. It serves the most-specific ITERTD rows and, as the
// output rule of the incremental global upper-bound search, one segment
// of constant U_k (counts only grow within it, so candidates only join; a
// rebuild starts a new set).
type specificSet struct {
	marked  map[string]bool
	maximal map[string]Pattern
	// key and sub are scratch: a key under construction and the subset
	// whose parents mark walks.
	key []byte
	sub Pattern
}

// setKey sets s.key to p's map key: one uvarint of v+1 per attribute, so
// one byte per attribute under 127 values. Uvarints are prefix-free, so
// the key is injective.
func (s *specificSet) setKey(p Pattern) {
	s.key = s.key[:0]
	for _, v := range p {
		s.key = binary.AppendUvarint(s.key, uint64(v+1))
	}
}

func newSpecificSet() *specificSet {
	return &specificSet{marked: make(map[string]bool), maximal: make(map[string]Pattern)}
}

func (s *specificSet) admit(p Pattern) bool {
	s.sub = append(s.sub[:0], p...)
	s.mark()
	if s.setKey(p); !s.marked[string(s.key)] {
		s.maximal[string(s.key)] = p
	}
	return true
}

// mark marks the graph parents of s.sub, unbinding one attribute at a
// time in place, and recurses into each parent that was neither marked nor
// admitted.
func (s *specificSet) mark() {
	for a, v := range s.sub {
		if v == pattern.Unbound {
			continue
		}
		s.sub[a] = pattern.Unbound
		if s.setKey(s.sub); !s.marked[string(s.key)] {
			key := string(s.key)
			s.marked[key] = true
			if _, ok := s.maximal[key]; ok {
				delete(s.maximal, key)
			} else {
				s.mark()
			}
		}
		s.sub[a] = v
	}
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
