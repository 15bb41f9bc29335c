package core

import (
	"context"

	"rankfair/internal/pattern"
)

// pnode is a node of the persistent search tree maintained by PROPBOUNDS.
// Unlike the global case, a node can oscillate between biased and unbiased:
// the per-pattern bound α·s_D(p)·k/|D| grows with k while the count grows
// only when new top tuples match. Nodes therefore keep their explored
// children even while biased ("orphan" subtrees stay tracked).
type pnode struct {
	p        pattern.Pattern
	sD       int
	cnt      int
	biased   bool
	expanded bool
	children []*pnode
	// ktilde is, for an unbiased node, the smallest k at which the node
	// becomes biased if its count stays unchanged (the k̃ of Section IV-C).
	ktilde int
	// key interns p.Key() when the node first joins the domination frontier.
	key string
}

// psink collects the side effects of one subtree build or one serial step
// phase: biased frontier nodes, nodes scheduled for re-examination (their
// ktilde is already computed; the bucket insert happens at merge time), and
// work accounting. Each fan-out sink also owns a searcher with its pooled
// partition scratch. Sinks merge into the shared state in deterministic
// order, which keeps the parallel build byte-identical to the serial one.
type psink struct {
	cn     canceler
	sr     searcher
	stats  Stats
	search SearchStats
	biased []*pnode
	sched  []*pnode
}

// propState holds the incremental search state of Algorithm 3.
type propState struct {
	in    *Input
	eng   *engine
	spec  *Spec
	stats *Stats
	n     int // |D|
	ctx   context.Context
	// search accumulates the run's SearchStats; nil when disabled. Serial
	// phases count into it directly, fan-out workers via their sink.
	search *SearchStats

	roots []*pnode
	// front is the biased frontier with its Res/DRes split maintained
	// incrementally: the full build bulk-seeds it, steps feed it only the
	// nodes that flipped.
	front *domFrontier[pnode]
	// buckets[k] holds unbiased nodes scheduled for re-examination at k
	// (the set K of the paper). Entries can be stale: a node is only
	// processed when its stored ktilde still equals k and it is unbiased.
	buckets [][]*pnode

	res  []Pattern // current result snapshot (sorted)
	dirt bool      // biased set changed since the last snapshot
}

// propBounds is Algorithm 3 (PROPBOUNDS): detection of groups with biased
// proportional representation, computed incrementally across k. Per k it
// examines only (a) explored nodes satisfied by the newly inserted tuple
// R(D)[k] — walking down from the root and skipping subtrees the tuple does
// not satisfy — and (b) unbiased nodes whose critical value k̃ equals k
// (maintained in the bucket queue K). A biased frontier node whose count
// catches up with its growing bound is expanded (selectiveTD resumes the
// search below it). The independent subtrees of the initial build and of
// resumed frontier expansions spread over s.Workers goroutines, with
// per-worker sinks merged deterministically so results are byte-identical
// to the serial path.
func propBounds(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	res := &Result{KMin: s.KMin, KMax: s.KMax, Groups: make([][]Pattern, s.KMax-s.KMin+1)}
	st := &propState{
		in:    in,
		eng:   newEngine(in),
		spec:  s,
		stats: &res.Stats,
		n:     len(in.Rows),
		ctx:   ctx,
		front: newDomFrontier(
			func(nd *pnode) pattern.Pattern { return nd.p },
			func(nd *pnode) *string { return &nd.key }),
		buckets: make([][]*pnode, s.KMax+2),
	}
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

// biasedAt evaluates the proportional bias condition at k.
func (s *propState) biasedAt(sD, cnt, k int) bool {
	return float64(cnt) < s.spec.Alpha*float64(sD)*float64(k)/float64(s.n)
}

// computeKtilde returns the smallest k with biasedAt(sD, cnt, k), or
// KMax+1 when the node cannot become biased within the range. The initial
// estimate comes from solving cnt = α·sD·k/|D| and is corrected by a local
// scan to be robust against floating-point rounding.
func (s *propState) computeKtilde(sD, cnt int) int {
	limit := s.spec.KMax + 1
	if sD == 0 {
		return limit
	}
	kt := int(float64(cnt)*float64(s.n)/(s.spec.Alpha*float64(sD))) + 1
	if kt < 1 {
		kt = 1
	}
	for kt > 1 && s.biasedAt(sD, cnt, kt-1) {
		kt--
	}
	for kt <= s.spec.KMax && !s.biasedAt(sD, cnt, kt) {
		kt++
	}
	if kt > s.spec.KMax {
		return limit
	}
	return kt
}

// scheduleInto records the node's k̃ and queues it on the sink; the bucket
// insert happens when the sink merges. Deferring the insert is safe within
// a step: a node scheduled at step k is unbiased at k, so its k̃ is > k and
// the entry cannot be due before the merge runs.
func (s *propState) scheduleInto(nd *pnode, sk *psink) {
	nd.ktilde = s.computeKtilde(nd.sD, nd.cnt)
	if nd.ktilde <= s.spec.KMax {
		sk.sched = append(sk.sched, nd)
	}
}

// merge folds a sink into the shared state. Frontier admissions use the
// sink's own canceler, so a halt during the incremental domination update
// registers at the caller's existing halted checks.
func (s *propState) merge(sk *psink) {
	s.stats.add(sk.stats)
	s.search.merge(&sk.search)
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

// fullBuild runs the complete top-down search at kMin, materializing the
// explored tree, the biased frontier, and the schedule K. The root's
// subtrees build independently on the worker pool; sink merge order is the
// subtree order, matching the serial traversal. The root units alias the
// counting index's posting lists (zero setup scans on a warm index). It reports false when the build was abandoned
// because the context was canceled.
func (s *propState) fullBuild(k int) bool {
	s.stats.FullSearches++
	units := s.eng.rootUnits()
	sinks := make([]psink, len(units))
	children := make([]*pnode, len(units))
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
		child := &pnode{p: u.p, sD: sD, cnt: s.eng.topCount(u.m, k)}
		children[i] = child
		if s.biasedAt(sD, child.cnt, k) {
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

func (s *propState) buildChildrenInto(parent *pnode, m matchSet, k int, sk *psink) []*pnode {
	var kids []*pnode
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
			child := &pnode{p: parent.p.With(a, int32(v)), sD: sD, cnt: cs.count(v)}
			kids = append(kids, child)
			if s.biasedAt(sD, child.cnt, k) {
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
func (s *propState) step(k int) bool {
	newRow := s.in.Rows[s.in.Ranking[k-1]]

	// Serial phases use one sink for stats and deferred schedule inserts;
	// biased-set membership changes apply directly (no concurrency here).
	ser := &psink{cn: canceler{ctx: s.ctx}}

	// Phase 1 (selectiveTD): walk only explored nodes the new tuple
	// satisfies; their counts grow by one. Orphan subtrees below biased
	// nodes are traversed too so their counts stay fresh.
	var freed []*pnode
	var walk func(nd *pnode)
	walk = func(nd *pnode) {
		if ser.cn.stopped() || !nd.p.Matches(newRow) {
			return
		}
		ser.stats.NodesExamined++
		nd.cnt++
		if nd.biased {
			if !s.biasedAt(nd.sD, nd.cnt, k) {
				nd.biased = false
				s.front.remove(nd)
				s.scheduleInto(nd, ser)
				freed = append(freed, nd)
				s.dirt = true
			}
		} else if s.biasedAt(nd.sD, nd.cnt, k) {
			// Only reachable when α > 1 lets the bound grow faster than
			// one per k; handled for completeness.
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

	// Phase 2: nodes whose critical k̃ is reached flip to biased unless
	// their count was bumped meanwhile (stale entries are skipped via the
	// ktilde guard).
	for _, nd := range s.buckets[k] {
		if ser.cn.stopped() {
			break
		}
		if nd.biased || nd.ktilde != k {
			continue
		}
		ser.stats.NodesExamined++
		if s.biasedAt(nd.sD, nd.cnt, k) {
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

	// Phase 3: resume the search below frontier nodes that became unbiased
	// and had no explored children yet. Those subtrees are disjoint, so
	// they expand on the worker pool, one sink each; the node's match set
	// is re-materialized (a posting-list intersection on the rank-space
	// engine) rather than re-scanned.
	var resumed []*pnode
	for _, nd := range freed {
		if !nd.expanded {
			nd.expanded = true
			s.search.expanded()
			resumed = append(resumed, nd)
		}
	}
	sinks := make([]psink, len(resumed))
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

func (s *propState) expandWithInto(nd *pnode, m matchSet, k int, sk *psink) {
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
			child := &pnode{p: nd.p.With(a, int32(v)), sD: sD, cnt: cs.count(v)}
			nd.children = append(nd.children, child)
			if s.biasedAt(sD, child.cnt, k) {
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

// snapshot returns the most general biased patterns. Because biased nodes
// can appear and disappear anywhere in the explored tree (including
// interior nodes with explored descendants), the Res/DRes split lives in
// the domination frontier: each dirty snapshot settles the step's flips
// into it as one sorted delta (the first one from an empty frontier) and
// folds the domination tally into the stats — the same per-pass
// accounting the full recompute used to report. ok is false when the
// settle was abandoned because the context was canceled (the state stays
// dirty).
func (s *propState) snapshot() (groups []Pattern, ok bool) {
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
