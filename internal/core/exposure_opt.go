package core

import (
	"context"
	"sort"

	"rankfair/internal/pattern"
)

// exposureBounds is the optimized incremental counterpart of
// iterTDExposure, built on the PROPBOUNDS skeleton (Algorithm 3): the
// exposure of a pattern changes only when the newly inserted tuple R(D)[k]
// satisfies it (it gains that position's weight), while its bound
// α·s_D(p)·E(k)/|D| grows with every k. Unbiased nodes are therefore
// scheduled at the critical k̃ where the growing bound overtakes their
// frozen exposure; per step only nodes satisfied by the new tuple and nodes
// whose k̃ is due are examined. Subtree builds and resumed expansions
// spread over s.Workers goroutines with deterministic sink merge.
//
// Unlike the count measure, a matched biased node does not necessarily flip
// unbiased (position weights decay with k), so flips are re-checked rather
// than assumed.
func exposureBounds(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	res := &Result{KMin: s.KMin, KMax: s.KMax, Groups: make([][]Pattern, s.KMax-s.KMin+1)}
	st := &exposureState{
		in:    in,
		eng:   newEngine(in),
		spec:  s,
		stats: &res.Stats,
		n:     float64(len(in.Rows)),
		ctx:   ctx,
		front: newDomFrontier(
			func(nd *enode) pattern.Pattern { return nd.p },
			func(nd *enode) *string { return &nd.key }),
		buckets:  make([][]*enode, s.KMax+2),
		totalExp: make([]float64, s.KMax+1),
	}
	wByRank := make([]float64, s.KMax)
	for i := 0; i < s.KMax; i++ {
		wByRank[i] = PositionExposure(i + 1)
		st.totalExp[i+1] = st.totalExp[i] + wByRank[i]
	}
	st.eng.weightByRank = wByRank
	st.search = st.eng.newSearchStats(s.Workers)
	res.Search = st.search
	if !st.fullBuild(s.KMin) {
		return nil, canceledErr(ctx, res.Stats.NodesExamined)
	}
	groups, ok := st.snapshot()
	if !ok {
		return nil, canceledErr(ctx, res.Stats.NodesExamined)
	}
	res.Groups[0] = groups
	for k := s.KMin + 1; k <= s.KMax; k++ {
		if !st.step(k) {
			return nil, canceledErr(ctx, res.Stats.NodesExamined)
		}
		if groups, ok = st.snapshot(); !ok {
			return nil, canceledErr(ctx, res.Stats.NodesExamined)
		}
		res.Groups[k-s.KMin] = groups
	}
	return res, nil
}

// enode mirrors pnode with a float exposure in place of the integer count.
type enode struct {
	p        pattern.Pattern
	sD       int
	exposure float64
	biased   bool
	expanded bool
	children []*enode
	ktilde   int
	// key interns p.Key() when the node first joins the domination frontier.
	key string
}

// esink mirrors psink for the exposure measure.
type esink struct {
	cn     canceler
	sr     searcher
	stats  Stats
	search SearchStats
	biased []*enode
	sched  []*enode
}

type exposureState struct {
	in    *Input
	eng   *engine
	spec  *Spec
	stats *Stats
	n     float64
	ctx   context.Context
	// search accumulates the run's SearchStats; nil when disabled.
	search *SearchStats

	roots []*enode
	// front holds the biased frontier with its Res/DRes split maintained
	// incrementally (see domFrontier).
	front    *domFrontier[enode]
	buckets  [][]*enode
	totalExp []float64

	res  []Pattern
	dirt bool
}

func (s *exposureState) biasedAt(sD int, exposure float64, k int) bool {
	return exposure < s.spec.Alpha*float64(sD)*s.totalExp[k]/s.n
}

// computeKtilde finds the smallest k with biasedAt true. E(k) is strictly
// increasing in k, so the bound is monotone and a scan from a solved
// starting point terminates; exposure stays fixed between matches.
func (s *exposureState) computeKtilde(sD int, exposure float64) int {
	limit := s.spec.KMax + 1
	if sD == 0 {
		return limit
	}
	// Invert E(k) >= exposure·n/(α·sD) by scanning: E is concave and the
	// range is small, so binary search over totalExp keeps this O(log k).
	target := exposure * s.n / (s.spec.Alpha * float64(sD))
	kt := sort.SearchFloat64s(s.totalExp, target) // first k with E(k) >= target
	if kt < 1 {
		kt = 1
	}
	for kt > 1 && s.biasedAt(sD, exposure, kt-1) {
		kt--
	}
	for kt <= s.spec.KMax && !s.biasedAt(sD, exposure, kt) {
		kt++
	}
	if kt > s.spec.KMax {
		return limit
	}
	return kt
}

// scheduleInto records the node's k̃ and queues it on the sink (bucket
// insert at merge time; see propState.scheduleInto for why deferring is
// safe).
func (s *exposureState) scheduleInto(nd *enode, sk *esink) {
	nd.ktilde = s.computeKtilde(nd.sD, nd.exposure)
	if nd.ktilde <= s.spec.KMax {
		sk.sched = append(sk.sched, nd)
	}
}

// merge folds a sink into the shared state.
func (s *exposureState) merge(sk *esink) {
	s.stats.add(sk.stats)
	s.search.merge(&sk.search)
	// Frontier admissions only buffer; the next snapshot settles them.
	for _, nd := range sk.biased {
		s.front.add(nd)
	}
	if len(sk.biased) > 0 {
		s.dirt = true
	}
	for _, nd := range sk.sched {
		s.buckets[nd.ktilde] = append(s.buckets[nd.ktilde], nd)
	}
}

// fullBuild mirrors propState.fullBuild: independent root subtrees build
// on the worker pool, sinks merge in subtree order. It reports false when
// the build was abandoned because the context was canceled.
func (s *exposureState) fullBuild(k int) bool {
	s.stats.FullSearches++
	units := s.eng.rootUnits()
	sinks := make([]esink, len(units))
	children := make([]*enode, len(units))
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
		child := &enode{p: u.p, sD: sD, exposure: s.eng.exposureOf(u.m, k)}
		children[i] = child
		if s.biasedAt(sD, child.exposure, k) {
			child.biased = true
			sk.sr.ss.prunedBound()
			sk.sr.ss.frontier(child.p)
			sk.biased = append(sk.biased, child)
			return
		}
		s.scheduleInto(child, sk)
		child.expanded = true
		sk.sr.ss.expanded()
		child.children = s.buildChildrenInto(child, u.m, k, sk)
	})
	halted := false
	for i := range units {
		if children[i] != nil {
			s.roots = append(s.roots, children[i])
		}
		s.merge(&sinks[i])
		halted = halted || sinks[i].cn.halted
	}
	s.dirt = true
	return !halted
}

func (s *exposureState) buildChildrenInto(parent *enode, m matchSet, k int, sk *esink) []*enode {
	var kids []*enode
	n := s.in.Space.NumAttrs()
	for a := parent.p.MaxAttrIdx() + 1; a < n; a++ {
		card := s.in.Space.Cards[a]
		mk := sk.sr.mark()
		cs := sk.sr.childStats(m, a, card, k, true)
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
			child := &enode{p: parent.p.With(a, int32(v)), sD: sD, exposure: cs.exposure(v)}
			kids = append(kids, child)
			if s.biasedAt(sD, child.exposure, k) {
				child.biased = true
				sk.sr.ss.prunedBound()
				sk.sr.ss.frontier(child.p)
				sk.biased = append(sk.biased, child)
				continue
			}
			s.scheduleInto(child, sk)
			child.expanded = true
			sk.sr.ss.expanded()
			child.children = s.buildChildrenInto(child, cs.at(v), k, sk)
		}
		sk.sr.release(mk)
	}
	parent.children = kids
	return kids
}

// step advances the state from k-1 to k. It reports false when the step
// was abandoned because the context was canceled.
func (s *exposureState) step(k int) bool {
	newRow := s.in.Rows[s.in.Ranking[k-1]]
	w := s.eng.weightByRank[k-1]

	ser := &esink{cn: canceler{ctx: s.ctx}}
	var freed []*enode
	var walk func(nd *enode)
	walk = func(nd *enode) {
		if ser.cn.stopped() || !nd.p.Matches(newRow) {
			return
		}
		ser.stats.NodesExamined++
		nd.exposure += w
		if nd.biased {
			if !s.biasedAt(nd.sD, nd.exposure, k) {
				nd.biased = false
				s.front.remove(nd)
				s.scheduleInto(nd, ser)
				freed = append(freed, nd)
				s.dirt = true
			}
		} else if s.biasedAt(nd.sD, nd.exposure, k) {
			// Late positions carry less weight than the bound's growth,
			// so a matched unbiased node can still cross into bias.
			nd.biased = true
			s.search.prunedBound()
			s.search.frontier(nd.p)
			s.front.add(nd)
			s.dirt = true
		} else {
			s.scheduleInto(nd, ser)
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	for _, r := range s.roots {
		walk(r)
	}

	for _, nd := range s.buckets[k] {
		if ser.cn.stopped() {
			break
		}
		if nd.biased || nd.ktilde != k {
			continue
		}
		ser.stats.NodesExamined++
		if s.biasedAt(nd.sD, nd.exposure, k) {
			nd.biased = true
			s.search.prunedBound()
			s.search.frontier(nd.p)
			s.front.add(nd)
			s.dirt = true
		} else {
			s.scheduleInto(nd, ser)
		}
	}
	s.buckets[k] = nil
	if ser.cn.halted {
		s.merge(ser)
		return false
	}

	var resumed []*enode
	for _, nd := range freed {
		if !nd.expanded {
			nd.expanded = true
			s.search.expanded()
			resumed = append(resumed, nd)
		}
	}
	sinks := make([]esink, len(resumed))
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
		s.expandWithInto(nd, m, k, sk)
		sk.sr.release(mk)
	})
	s.merge(ser)
	halted := false
	for i := range sinks {
		s.merge(&sinks[i])
		halted = halted || sinks[i].cn.halted
	}
	return !halted
}

func (s *exposureState) expandWithInto(nd *enode, m matchSet, k int, sk *esink) {
	n := s.in.Space.NumAttrs()
	for a := nd.p.MaxAttrIdx() + 1; a < n; a++ {
		card := s.in.Space.Cards[a]
		mk := sk.sr.mark()
		cs := sk.sr.childStats(m, a, card, k, true)
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
			child := &enode{p: nd.p.With(a, int32(v)), sD: sD, exposure: cs.exposure(v)}
			nd.children = append(nd.children, child)
			if s.biasedAt(sD, child.exposure, k) {
				child.biased = true
				sk.sr.ss.prunedBound()
				sk.sr.ss.frontier(child.p)
				sk.biased = append(sk.biased, child)
				continue
			}
			s.scheduleInto(child, sk)
			child.expanded = true
			sk.sr.ss.expanded()
			s.expandWithInto(child, cs.at(v), k, sk)
		}
		sk.sr.release(mk)
	}
}

// snapshot returns the most general biased patterns (see
// propState.snapshot): each dirty snapshot settles the step's flips into
// the domination frontier. ok is false when the settle was abandoned
// because the context was canceled.
func (s *exposureState) snapshot() (groups []Pattern, ok bool) {
	if !s.dirt {
		return s.res, true
	}
	if s.front.settle(s.ctx, s.spec.Workers) {
		return nil, false
	}
	s.search.addDominated(int64(s.front.ndom))
	s.dirt = false
	s.res = s.front.emit()
	return s.res, true
}
