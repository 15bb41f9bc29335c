package core

import (
	"context"
	"fmt"

	"rankfair/internal/pattern"
)

// gnode is a node of the persistent search tree maintained by GLOBALBOUNDS
// across consecutive k values.
type gnode struct {
	p        pattern.Pattern
	sD       int      // size in D (never changes)
	cnt      int      // size in the current top-k
	biased   bool     // cnt < L_k
	expanded bool     // children have been generated
	children []*gnode // explored children with sD >= minSize
	// key interns p.Key() when the node first joins the domination
	// frontier: the node persists across the staircase's per-k snapshots,
	// so the canonical key is built once per node, not once per snapshot.
	key string
}

// gsink collects the side effects of one subtree build: the biased
// frontier nodes it reached and the work it did. Every worker of a fan-out
// owns one — including a searcher with its pooled partition scratch; the
// sinks are merged into the shared state in deterministic order after the
// fan-out completes.
type gsink struct {
	cn     canceler
	sr     searcher
	stats  Stats
	search SearchStats
	biased []*gnode
}

// globalState holds the incremental search state of Algorithm 2.
type globalState struct {
	in    *Input
	eng   *engine
	spec  *Spec
	stats *Stats
	ctx   context.Context
	// search accumulates the run's SearchStats; nil when disabled. Serial
	// phases count into it directly, fan-out workers into their sink's
	// local copy, merged at the same points as the sinks' Stats.
	search *SearchStats

	roots []*gnode
	// front is the biased frontier (Res ∪ DRes of the paper) with its
	// Res/DRes split maintained incrementally: full builds bulk-seed it,
	// steps feed it the flipped nodes only.
	front *domFrontier[gnode]
}

// globalBounds is Algorithm 2 (GLOBALBOUNDS): detection of groups with
// biased representation under global lower bounds, computed incrementally
// across k. When L_k = L_{k-1}, the search for k starts from the endpoint of
// the search for k-1: only frontier patterns satisfied by the newly inserted
// tuple R(D)[k] can change status, and a frontier pattern whose count rises
// to the bound resumes the search in its unexplored subtree
// (searchFromNode). When L_k increases, a fresh top-down search is performed
// (the paper's rule; it requires a non-decreasing bound sequence).
//
// The algorithm is sequential in k, so the parallelism lives inside one
// step: the independent subtrees of a full build, the resumed subtrees of
// freed frontier nodes, and the per-pattern domination filter spread over
// s.Workers goroutines. Per-worker sinks are merged in deterministic order,
// so results are byte-identical to the serial path.
func globalBounds(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	for i := 1; i < len(s.Lower); i++ {
		if s.Lower[i] < s.Lower[i-1] {
			return nil, fmt.Errorf("core: GlobalBounds requires non-decreasing lower bounds, got L=%d after L=%d (use the ITERTD baseline for arbitrary bounds)",
				s.Lower[i], s.Lower[i-1])
		}
	}
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	res := &Result{KMin: s.KMin, KMax: s.KMax, Groups: make([][]Pattern, s.KMax-s.KMin+1)}
	st := &globalState{in: in, eng: newEngine(in), spec: s, stats: &res.Stats, ctx: ctx}
	st.search = st.eng.newSearchStats(s.Workers)
	res.Search = st.search

	if !st.fullBuild(s.KMin) {
		return nil, canceledErr(ctx, res.Stats.NodesExamined)
	}
	res.Groups[0] = st.snapshot()
	for k := s.KMin + 1; k <= s.KMax; k++ {
		if s.lowerAt(k) > s.lowerAt(k-1) {
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

// fullBuild runs a complete top-down search at k, building the persistent
// node tree (the paper's TopDownSearch with DRes maintenance). The root's
// subtrees are independent, so they build on the worker pool, each into its
// own sink; the merge walks the sinks in subtree order. The root units
// alias the counting index's posting lists, so a warm index starts the
// build with zero dataset scans. It reports false when the build was
// abandoned because the context was canceled.
func (s *globalState) fullBuild(k int) bool {
	s.stats.FullSearches++
	s.roots = nil
	// A bound increase rebuilds the tree, so the frontier restarts from
	// scratch and re-seeds at the normalize below.
	s.front = newDomFrontier(
		func(nd *gnode) pattern.Pattern { return nd.p },
		func(nd *gnode) *string { return &nd.key })

	L := s.spec.lowerAt(k)
	units := s.eng.rootUnits()
	sinks := make([]gsink, len(units))
	children := make([]*gnode, len(units))
	fanOut(s.spec.Workers, len(units), func(i int) {
		u := &units[i]
		sk := &sinks[i]
		sk.cn = canceler{ctx: s.ctx}
		sk.sr = s.eng.acquire()
		defer sk.sr.close()
		if s.search != nil {
			sk.sr.ss = &sk.search
		}
		sk.stats.NodesExamined++
		sD := len(u.m.all)
		if sD < s.spec.MinSize {
			sk.sr.ss.prunedSize()
			return
		}
		child := &gnode{p: u.p, sD: sD, cnt: s.eng.topCount(u.m, k)}
		children[i] = child
		if child.cnt < L {
			child.biased = true
			sk.sr.ss.prunedBound()
			sk.sr.ss.frontier(child.p)
			sk.biased = append(sk.biased, child)
			return
		}
		child.expanded = true
		sk.sr.ss.expanded()
		child.children = s.buildChildrenInto(child, u.m, k, L, sk)
	})
	halted := false
	for i := range units {
		if children[i] != nil {
			s.roots = append(s.roots, children[i])
		}
		s.stats.add(sinks[i].stats)
		s.search.merge(&sinks[i].search)
		for _, nd := range sinks[i].biased {
			s.front.add(nd)
		}
		halted = halted || sinks[i].cn.halted
	}
	if halted {
		return false
	}
	return s.normalize()
}

// buildChildrenInto recursively materializes the explored subtree below
// parent given its match set, returning the explored children. All side
// effects (stats, biased frontier) go to the caller's sink, so concurrent
// builds of disjoint subtrees never touch shared state; partitions live in
// the sink's arena, released per attribute as the recursion unwinds.
func (s *globalState) buildChildrenInto(parent *gnode, m matchSet, k, L int, sk *gsink) []*gnode {
	var kids []*gnode
	n := s.in.Space.NumAttrs()
	for a := parent.p.MaxAttrIdx() + 1; a < n; a++ {
		card := s.in.Space.Cards[a]
		mk := sk.sr.mark()
		cs := sk.sr.childStats(m, a, card, k, false)
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
			child := &gnode{p: parent.p.With(a, int32(v)), sD: sD, cnt: cs.count(v)}
			kids = append(kids, child)
			if child.cnt < L {
				child.biased = true
				sk.sr.ss.prunedBound()
				sk.sr.ss.frontier(child.p)
				sk.biased = append(sk.biased, child)
				continue
			}
			child.expanded = true
			sk.sr.ss.expanded()
			child.children = s.buildChildrenInto(child, cs.at(v), k, L, sk)
		}
		sk.sr.release(mk)
	}
	parent.children = kids
	return kids
}

// step advances the state from k-1 to k with an unchanged bound. It returns
// whether the result set changed, and false in ok when the step was
// abandoned mid-traversal because the context was canceled.
func (s *globalState) step(k int) (changed, ok bool) {
	L := s.spec.lowerAt(k)
	newRow := s.in.Rows[s.in.Ranking[k-1]]

	cn := canceler{ctx: s.ctx}
	var freed []*gnode
	var walk func(nd *gnode)
	walk = func(nd *gnode) {
		if cn.stopped() || !nd.p.Matches(newRow) {
			return
		}
		s.stats.NodesExamined++
		nd.cnt++
		if nd.biased && nd.cnt >= L {
			nd.biased = false
			freed = append(freed, nd)
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
	if len(freed) == 0 {
		return false, true
	}

	for _, nd := range freed {
		s.front.remove(nd)
	}
	// searchFromNode: resume the search in the unexplored subtrees of the
	// freed frontier nodes. Freed nodes were frontier nodes, so their
	// subtrees are disjoint and expand independently on the worker pool.
	sinks := make([]gsink, len(freed))
	fanOut(s.spec.Workers, len(freed), func(i int) {
		sk := &sinks[i]
		sk.cn = canceler{ctx: s.ctx}
		sk.sr = s.eng.acquire()
		defer sk.sr.close()
		if s.search != nil {
			sk.sr.ss = &sk.search
		}
		s.expandInto(freed[i], k, L, sk)
	})
	halted := false
	for i := range sinks {
		s.stats.add(sinks[i].stats)
		s.search.merge(&sinks[i].search)
		for _, nd := range sinks[i].biased {
			s.front.add(nd)
		}
		halted = halted || sinks[i].cn.halted
	}
	if halted {
		return false, false
	}
	// The frontier absorbed the flips incrementally (freed removals above,
	// new biased discoveries per sink); normalize only folds the updated
	// domination tally into the stats.
	if !s.normalize() {
		return false, false
	}
	return true, true
}

// expandInto resumes the top-down search below a node whose count rose to
// the bound: the node's match set is re-materialized by a posting-list
// intersection and its subtree explored from there.
func (s *globalState) expandInto(nd *gnode, k, L int, sk *gsink) {
	if nd.expanded {
		return
	}
	nd.expanded = true
	sk.sr.ss.expanded()
	mk := sk.sr.mark()
	m := sk.sr.materialize(nd.p)
	s.expandWithInto(nd, m, k, L, sk)
	sk.sr.release(mk)
}

func (s *globalState) expandWithInto(nd *gnode, m matchSet, k, L int, sk *gsink) {
	n := s.in.Space.NumAttrs()
	for a := nd.p.MaxAttrIdx() + 1; a < n; a++ {
		card := s.in.Space.Cards[a]
		mk := sk.sr.mark()
		cs := sk.sr.childStats(m, a, card, k, false)
		for v := 0; v < card; v++ {
			if sk.cn.stopped() {
				return
			}
			sk.stats.NodesExamined++
			sD := cs.size(v)
			if sD < s.spec.MinSize {
				sk.sr.ss.prunedSize()
				continue
			}
			child := &gnode{p: nd.p.With(a, int32(v)), sD: sD, cnt: cs.count(v)}
			nd.children = append(nd.children, child)
			if child.cnt < L {
				child.biased = true
				sk.sr.ss.prunedBound()
				sk.sr.ss.frontier(child.p)
				sk.biased = append(sk.biased, child)
				continue
			}
			child.expanded = true
			sk.sr.ss.expanded()
			s.expandWithInto(child, cs.at(v), k, L, sk)
		}
		sk.sr.release(mk)
	}
}

// normalize settles the Res/DRes split of the biased frontier: the
// step's flips (after a full build, every biased node) go into the
// domination frontier as one sorted delta, whose domination scans fan out
// per generality level (on adversarial inputs with huge incomparable
// result sets that filter, not the tree walk, is the dominant cost), and
// the domination tally folds into the stats — the same per-pass
// accounting the full recompute used to report. It reports false when the
// settle was abandoned because the context was canceled.
func (s *globalState) normalize() bool {
	if s.front.settle(s.ctx, s.spec.Workers) {
		return false
	}
	s.search.addDominated(int64(s.front.ndom))
	return true
}

// snapshot renders the current Res as a sorted pattern slice straight off
// the frontier's maintained order.
func (s *globalState) snapshot() []Pattern {
	return s.front.emit()
}
