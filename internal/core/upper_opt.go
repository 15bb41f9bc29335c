package core

import (
	"context"

	"rankfair/internal/pattern"
)

// globalUpperBounds is the incremental counterpart of iterTDGlobalUpper,
// adapting the Algorithm 2 idea to the upper-bound problem. Within a
// segment of constant U_k, counts only grow with k, so the candidate set
// (substantial patterns exceeding the bound — a downward-closed family)
// only grows; per step the search touches only explored nodes satisfied by
// the newly inserted tuple, and a frontier node crossing the bound resumes
// the search below it. The most specific (maximal) candidates are
// maintained incrementally: a new candidate starts maximal and de-maximizes
// its pattern-graph parents. When U_k changes, a fresh search runs (the
// analogue of the paper's rebuild on bound change).
//
// Independent subtrees build on s.Workers goroutines, each collecting its
// candidates in traversal order into a sink; the merge admits them in the
// serial order, so the maximality bookkeeping — and therefore the result —
// is byte-identical to the serial path.
func globalUpperBounds(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	res := &Result{KMin: s.KMin, KMax: s.KMax, Groups: make([][]Pattern, s.KMax-s.KMin+1)}
	st := &upperState{in: in, eng: newEngine(in), spec: s, stats: &res.Stats, ctx: ctx}
	st.search = st.eng.newSearchStats(s.Workers)
	res.Search = st.search

	if !st.fullBuild(s.KMin) {
		return nil, canceledErr(ctx, res.Stats.NodesExamined)
	}
	res.Groups[0] = st.snapshot()
	for k := s.KMin + 1; k <= s.KMax; k++ {
		if s.upperAt(k) != s.upperAt(k-1) {
			if !st.fullBuild(k) {
				return nil, canceledErr(ctx, res.Stats.NodesExamined)
			}
			res.Groups[k-s.KMin] = st.snapshot()
			continue
		}
		changed, ok := st.step(k)
		if !ok {
			return nil, canceledErr(ctx, res.Stats.NodesExamined)
		}
		if changed {
			res.Groups[k-s.KMin] = st.snapshot()
		} else {
			res.Groups[k-s.KMin] = res.Groups[k-s.KMin-1]
		}
	}
	return res, nil
}

// unode is a node of the persistent tree maintained by globalUpperBounds.
type unode struct {
	p         pattern.Pattern
	sD        int
	cnt       int
	candidate bool // substantial and cnt > U
	expanded  bool
	children  []*unode
}

// usink collects one subtree build's candidates (in traversal order) and
// work accounting; candidates are admitted at merge time so the maximality
// maps are only touched serially.
type usink struct {
	cn     canceler
	sr     searcher
	stats  Stats
	search SearchStats
	cands  []*unode
}

type upperState struct {
	in    *Input
	eng   *engine
	spec  *Spec
	stats *Stats
	ctx   context.Context
	// search accumulates the run's SearchStats; nil when disabled.
	search *SearchStats

	roots []*unode
	// candidates maps pattern keys of all current candidates; maximal
	// tracks the most specific ones (no candidate pattern-graph child).
	candidates map[string]*unode
	maximal    map[*unode]struct{}
}

// fullBuild runs a complete search at k: candidates are explored, frontier
// nodes (substantial, not exceeding) stop the descent. Root subtrees build
// independently on the worker pool; the merge admits candidates in subtree
// order, reproducing the serial admission sequence. It reports false when
// the build was abandoned because the context was canceled.
func (s *upperState) fullBuild(k int) bool {
	s.stats.FullSearches++
	s.roots = nil
	s.candidates = make(map[string]*unode)
	s.maximal = make(map[*unode]struct{})

	u := s.spec.upperAt(k)
	units := s.eng.rootUnits()
	sinks := make([]usink, len(units))
	children := make([]*unode, len(units))
	fanOut(s.spec.Workers, len(units), func(i int) {
		un := &units[i]
		sk := &sinks[i]
		sk.cn = canceler{ctx: s.ctx}
		sk.sr = s.eng.acquire()
		defer sk.sr.close()
		if s.search != nil {
			sk.sr.ss = &sk.search
		}
		sk.stats.NodesExamined++
		sD := len(un.m.all)
		if sD < s.spec.MinSize {
			sk.sr.ss.prunedSize()
			return
		}
		child := &unode{p: un.p, sD: sD, cnt: s.eng.topCount(un.m, k)}
		children[i] = child
		if child.cnt > u {
			sk.sr.ss.frontier(child.p)
			sk.sr.ss.expanded()
			sk.cands = append(sk.cands, child)
			child.expanded = true
			child.children = s.buildChildrenInto(child, un.m, k, u, sk)
		} else {
			sk.sr.ss.prunedBound()
		}
	})
	halted := false
	for i := range units {
		if children[i] != nil {
			s.roots = append(s.roots, children[i])
		}
		s.stats.add(sinks[i].stats)
		s.search.merge(&sinks[i].search)
		for _, nd := range sinks[i].cands {
			s.admit(nd)
		}
		halted = halted || sinks[i].cn.halted
	}
	return !halted
}

func (s *upperState) buildChildrenInto(parent *unode, m matchSet, k, u int, sk *usink) []*unode {
	var kids []*unode
	n := s.in.Space.NumAttrs()
	for a := parent.p.MaxAttrIdx() + 1; a < n; a++ {
		card := s.in.Space.Cards[a]
		mk := sk.sr.mark()
		cs := sk.sr.childStats(m, a, card, k, nil)
		for v := 0; v < card; v++ {
			if sk.cn.stopped() {
				return kids
			}
			sk.stats.NodesExamined++
			sD := cs.size(v)
			if sD < s.spec.MinSize {
				sk.sr.ss.prunedSize()
				continue
			}
			child := &unode{p: parent.p.With(a, int32(v)), sD: sD, cnt: cs.count(v)}
			kids = append(kids, child)
			if child.cnt > u {
				sk.sr.ss.frontier(child.p)
				sk.sr.ss.expanded()
				sk.cands = append(sk.cands, child)
				child.expanded = true
				child.children = s.buildChildrenInto(child, cs.at(v), k, u, sk)
			} else {
				sk.sr.ss.prunedBound()
			}
		}
		sk.sr.release(mk)
	}
	parent.children = kids
	return kids
}

// admit registers a node as a candidate, keeping the maximal set correct
// for any insertion order within a step: the node is maximal unless one of
// its pattern-graph children is already a candidate, and its candidate
// pattern-graph parents stop being maximal.
func (s *upperState) admit(nd *unode) {
	nd.candidate = true
	s.candidates[nd.p.Key()] = nd
	hasCandChild := false
scan:
	for a := 0; a < s.in.Space.NumAttrs(); a++ {
		if nd.p[a] != pattern.Unbound {
			continue
		}
		for v := 0; v < s.in.Space.Cards[a]; v++ {
			if _, ok := s.candidates[nd.p.With(a, int32(v)).Key()]; ok {
				hasCandChild = true
				break scan
			}
		}
	}
	if !hasCandChild {
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

// step advances from k-1 to k with an unchanged bound. It returns whether
// the candidate set changed, and false in ok when the step was abandoned
// because the context was canceled.
func (s *upperState) step(k int) (changed, ok bool) {
	u := s.spec.upperAt(k)
	newRow := s.in.Rows[s.in.Ranking[k-1]]
	cn := canceler{ctx: s.ctx}
	var crossed []*unode
	var walk func(nd *unode)
	walk = func(nd *unode) {
		if cn.stopped() || !nd.p.Matches(newRow) {
			return
		}
		s.stats.NodesExamined++
		nd.cnt++
		if !nd.candidate && nd.cnt > u {
			s.search.frontier(nd.p)
			crossed = append(crossed, nd)
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	for _, r := range s.roots {
		walk(r)
	}
	if cn.halted {
		return false, false
	}
	if len(crossed) == 0 {
		return false, true
	}
	// Admit in generality order so graph-parent bookkeeping sees parents
	// before children (a crossing node's crossing parent must already be
	// a candidate when the child de-maximizes it).
	sortUnodes(crossed)
	for _, nd := range crossed {
		s.admit(nd)
	}
	// Resume the search below the newly admitted candidates. Crossed nodes
	// were unexplored frontier nodes, so their subtrees are disjoint and
	// expand independently; each sink's candidates are admitted at merge,
	// in the same order the serial expansion would have produced.
	var resumed []*unode
	for _, nd := range crossed {
		if !nd.expanded {
			nd.expanded = true
			s.search.expanded()
			resumed = append(resumed, nd)
		}
	}
	sinks := make([]usink, len(resumed))
	fanOut(s.spec.Workers, len(resumed), func(i int) {
		nd := resumed[i]
		sk := &sinks[i]
		sk.cn = canceler{ctx: s.ctx}
		sk.sr = s.eng.acquire()
		defer sk.sr.close()
		if s.search != nil {
			sk.sr.ss = &sk.search
		}
		mk := sk.sr.mark()
		m := sk.sr.materialize(nd.p)
		s.buildChildrenInto(nd, m, k, u, sk)
		sk.sr.release(mk)
	})
	halted := false
	for i := range sinks {
		s.stats.add(sinks[i].stats)
		s.search.merge(&sinks[i].search)
		for _, nd := range sinks[i].cands {
			s.admit(nd)
		}
		halted = halted || sinks[i].cn.halted
	}
	return true, !halted
}

func (s *upperState) snapshot() []Pattern {
	out := make([]Pattern, 0, len(s.maximal))
	for nd := range s.maximal {
		out = append(out, nd.p)
	}
	sortPatterns(out)
	return out
}

func sortUnodes(nodes []*unode) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && lessUnode(nodes[j], nodes[j-1]); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

func lessUnode(a, b *unode) bool {
	na, nb := a.p.NumAttrs(), b.p.NumAttrs()
	if na != nb {
		return na < nb
	}
	return a.p.Key() < b.p.Key()
}
