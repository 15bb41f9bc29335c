package core

import (
	"context"
	"slices"
	"sort"

	"rankfair/internal/count"
	"rankfair/internal/pattern"
)

// boundKind names one of the three lower bounds or the two upper ones.
type boundKind uint8

const (
	boundGlobal    boundKind = iota // L_k (Problem 3.1)
	boundProp                       // α·s_D(p)·k/|D| (Problem 3.2)
	boundExposure                   // α·s_D(p)·E(k)/|D| (exposure)
	boundUpper                      // U_k (Section III)
	boundPropUpper                  // β·s_D(p)·k/|D| (Section III)
)

// bound is what the incremental search and ITERTD test a node against,
// and the only place the measures differ. A node's score is its top-k
// count, or its top-k exposure (position weights summed in rank order)
// when weights is set. A lower bound stops the descent at a biased node
// (score below the bound); an upper bound stops it at a node whose score
// does not exceed the bound.
type bound struct {
	kind  boundKind
	spec  *Spec
	n     float64 // |D|
	slack float64 // α, or β for prop-upper
	// weights[r] is the exposure of rank position r (nil unless kind is
	// boundExposure). perK[k] is the bound's term at k: L_k or U_k under
	// the global bounds, E(k), the prefix sum of weights, under exposure,
	// and nil under the proportional bounds, which grow with k itself.
	// Reading it keeps stops within the inlining budget.
	weights, perK []float64
}

// newBound returns the bound of s's measure over in. The alternate report
// semantics test the bound of their threshold: lower-specific L_k and
// upper-general U_k.
func newBound(in *Input, s *Spec) bound {
	b := bound{spec: s, n: float64(len(in.Rows)), slack: s.Alpha}
	switch s.Measure {
	case MeasureGlobal, MeasureLowerSpecific:
		b.kind, b.perK = boundGlobal, byK(s, s.Lower)
	case MeasureGlobalUpper, MeasureUpperGeneral:
		b.kind, b.perK = boundUpper, byK(s, s.Upper)
	case MeasureProp:
		b.kind = boundProp
	case MeasurePropUpper:
		b.kind, b.slack = boundPropUpper, s.Beta
	case MeasureExposure:
		b.kind = boundExposure
		b.weights = make([]float64, s.KMax)
		b.perK = make([]float64, s.KMax+1)
		for i := 0; i < s.KMax; i++ {
			b.weights[i] = PositionExposure(i + 1)
			b.perK[i+1] = b.perK[i] + b.weights[i]
		}
	}
	return b
}

// byK returns the per-k bounds xs, indexed k-KMin, as floats indexed by k.
func byK(s *Spec, xs []int) []float64 {
	out := make([]float64, s.KMax+1)
	for i, x := range xs {
		out[s.KMin+i] = float64(x)
	}
	return out
}

// score returns the score at k of the node whose match set is m.
func (b *bound) score(m matchSet, k int) float64 {
	top := m.all[:count.PrefixCount(m.all, k)]
	if b.weights == nil {
		return float64(len(top))
	}
	e := 0.0
	for _, r := range top {
		e += b.weights[r]
	}
	return e
}

// childScore returns the score of child v of a split.
func (b *bound) childScore(cs *childStats, v int) float64 {
	if b.weights == nil {
		return float64(cs.cnt[v])
	}
	return cs.wsum[v]
}

// upper reports whether b bounds from above.
func (b *bound) upper() bool { return b.kind >= boundUpper }

// stops reports whether the bound stops the descent at a node of size sD
// and score s at k: the node falls below a lower bound, or does not exceed
// an upper one.
func (b *bound) stops(sD int, s float64, k int) bool {
	switch b.kind {
	case boundGlobal:
		return s < b.perK[k]
	case boundProp:
		return s < b.slack*float64(sD)*float64(k)/b.n
	case boundUpper:
		return s <= b.perK[k]
	case boundPropUpper:
		return s <= b.slack*float64(sD)*float64(k)/b.n
	}
	return s < b.slack*float64(sD)*b.perK[k]/b.n
}

// ktilde returns k̃ (Section IV-C): the smallest k <= KMax at which a node
// of size sD becomes biased if its score s stays unchanged, or KMax+1 when
// it cannot within the range. The global bounds are constant between
// rebuilds, so their answer is always KMax+1. The proportional bounds grow
// with k: the search starts at the k solving score = bound (E(k) is
// increasing, so exposure binary-searches it) and corrects the start by a
// local scan, robust against floating-point rounding.
func (b *bound) ktilde(sD int, s float64) int {
	never := b.spec.KMax + 1
	if b.kind == boundGlobal || b.kind == boundUpper || sD == 0 {
		return never
	}
	target := s * b.n / (b.slack * float64(sD))
	var kt int
	if b.kind == boundProp {
		kt = int(target) + 1
	} else {
		kt = sort.SearchFloat64s(b.perK, target)
	}
	kt = max(kt, 1)
	for kt > 1 && b.stops(sD, s, kt-1) {
		kt--
	}
	for kt <= b.spec.KMax && !b.stops(sD, s, kt) {
		kt++
	}
	return min(kt, never)
}

// gain returns the score a node gains at k when R(D)[k], the tuple
// entering the top-k, matches it.
func (b *bound) gain(k int) float64 {
	if b.weights == nil {
		return 1
	}
	return b.weights[k-1]
}

// rebuild reports whether the search at k must start over: when the
// global lower bound rises (the paper's rule for GLOBALBOUNDS), or when
// the upper bound changes in either direction.
func (b *bound) rebuild(k int) bool {
	switch b.kind {
	case boundGlobal:
		return b.perK[k] > b.perK[k-1]
	case boundUpper:
		return b.perK[k] != b.perK[k-1]
	}
	return false
}

// node is a node of the persistent search tree the incremental search
// keeps across k. Under the proportional bounds a node can oscillate
// between biased and unbiased — the bound grows with k while the score
// grows only when new top tuples match — so nodes keep their explored
// children while stopped (orphan subtrees stay tracked and their scores
// fresh).
type node struct {
	p        pattern.Pattern
	score    float64 // top-k count or exposure at the current k
	children []*node
	sD       int32 // size in D (never changes)
	// ktilde is, for an unbiased node, its k̃ when it was last scheduled.
	ktilde int32
	// attr=val is the pair the node binds beyond its parent (a root's
	// single pair): the only one the step walk needs to test.
	attr, val int32
	lvl       int32 // bound attributes, the node's generality level
	stopped   bool  // the bound stops the descent here
	expanded  bool  // children have been generated

	// The node's domination-frontier state (see domFrontier): fst, its
	// index in the member list, the last settle that folded it, its
	// witness while dominated, the head of the list of members it
	// witnesses and its own links in its witness's list.
	fst              uint8
	fidx             int32
	epoch            uint32
	wit, deps        *node
	depPrev, depNext *node
	parent           *node // nil for a root
}

// sink collects the side effects of one subtree build or of the serial
// phases of a step: nodes admitted to the output set, nodes scheduled for
// re-examination (their ktilde is set; the bucket insert happens at merge
// time), and work accounting. Each fan-out sink also owns a searcher with
// its pooled partition scratch. Sinks merge into the shared state in
// deterministic order, which keeps the parallel search byte-identical to
// the serial one.
type sink struct {
	cn     canceler
	sr     searcher
	stats  Stats
	search SearchStats
	out    []*node
	sched  []*node
}

// reset empties the sink for another job, keeping its buffers.
func (sk *sink) reset(ctx context.Context) {
	*sk = sink{
		cn:     canceler{ctx: ctx},
		search: SearchStats{FrontierByLevel: sk.search.FrontierByLevel[:0]},
		out:    sk.out[:0],
		sched:  sk.sched[:0],
	}
}

// admit counts nd's admission to the output set, which it joins when the
// sink merges.
func (sk *sink) admit(nd *node) {
	sk.sr.ss.frontierAt(int(nd.lvl))
	sk.out = append(sk.out, nd)
}

// outputRule is the set the incremental search reports from. It receives
// the nodes that land on the reported side of the bound, buffers their
// flips until settle, and emits the reported groups of the current k.
// domFrontier (the most general biased nodes) serves the lower bounds;
// specificSet (the most specific candidates) serves the upper bound.
type outputRule interface {
	add(nd *node)
	remove(nd *node)
	// settle applies the buffered flips; halted reports that ctx was
	// canceled first.
	settle(ctx context.Context, workers int) (halted bool)
	ndom() int // dominated members, counted into PrunedDominated
	emit() []Pattern
}

// incState holds the incremental search state.
type incState struct {
	in    *Input
	eng   *engine
	spec  *Spec
	b     bound
	stats *Stats
	ctx   context.Context
	// search accumulates the run's SearchStats; nil when disabled. Serial
	// phases count into it directly, fan-out workers via their sink.
	search *SearchStats

	roots []*node
	// ser is the sink of a step's serial phases and sinks those of its
	// fan-out jobs, all reused across steps.
	ser   sink
	sinks []sink
	// runs holds a step's resumed nodes split by root, one fan-out job
	// each, reused across steps.
	runs [][]*node
	// out is the output set. Under a lower bound it is the biased frontier
	// (Res ∪ DRes of the paper) with its Res/DRes split maintained
	// incrementally; under the upper bound it holds the candidates. A full
	// build bulk-seeds it, steps feed it only the nodes that flipped.
	out outputRule
	// buckets[k] holds unbiased nodes scheduled for re-examination at k
	// (the set K of the paper). Entries can be stale: a node is only
	// processed when its stored ktilde still equals k and it is unbiased.
	buckets [][]*node

	res  []Pattern // current result snapshot (sorted)
	dirt bool      // output set changed since the last snapshot
}

// incremental is the incremental search: GLOBALBOUNDS (Algorithm 2) for
// the global measure, PROPBOUNDS (Algorithm 3) for the proportional one,
// PROPBOUNDS over exposure, and the Section III adaptation of GLOBALBOUNDS
// to the global upper bound. It builds the search tree once at KMin and
// carries it across k. Per k it examines only (a) explored nodes satisfied
// by the newly inserted tuple R(D)[k] — walking down from the roots and
// skipping subtrees the tuple does not satisfy — and (b) unbiased nodes
// whose k̃ equals k (the bucket queue K). A stopped frontier node whose
// score catches up with its bound resumes the search below it. When the
// global lower bound rises, the tree is built afresh (the paper's rule; it
// requires a non-decreasing bound sequence), and so it is when the upper
// bound changes.
//
// The output rule follows from the bound. Under a lower bound the output
// is the biased (stopped) nodes, and the most general of them are
// reported. Under the upper bound it is the opened nodes, the candidates
// whose count exceeds U_k, and the most specific of them are reported.
// Within a segment of constant U_k counts only grow, so candidates only
// join.
//
// The search is sequential in k, so the parallelism lives inside one
// step: the independent subtrees of a build, the resumed subtrees of
// freed frontier nodes, and the domination scans of the frontier spread
// over s.Workers goroutines. Per-worker sinks merge in deterministic
// order, so results are byte-identical to the serial path.
func incremental(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	res := &Result{KMin: s.KMin, KMax: s.KMax, Groups: make([][]Pattern, s.KMax-s.KMin+1)}
	st := &incState{
		in:      in,
		eng:     newEngine(in),
		spec:    s,
		b:       newBound(in, s),
		stats:   &res.Stats,
		ctx:     ctx,
		buckets: make([][]*node, s.KMax+2),
	}
	st.search = st.eng.newSearchStats(s.Workers)
	res.Search = st.search
	for k := s.KMin; k <= s.KMax; k++ {
		var ok bool
		if k == s.KMin || st.b.rebuild(k) {
			ok = st.fullBuild(k)
		} else {
			ok = st.step(k)
		}
		var groups []Pattern
		if ok {
			groups, ok = st.snapshot()
		}
		if !ok {
			return nil, canceledErr(ctx, res.Stats.NodesExamined)
		}
		res.Groups[k-s.KMin] = groups
	}
	return res, nil
}

// scheduleInto records the node's k̃ and queues it on the sink; the bucket
// insert happens when the sink merges. Deferring the insert is safe within
// a step: a node scheduled at step k is unbiased at k, so its k̃ is > k and
// the entry cannot be due before the merge runs.
func (s *incState) scheduleInto(nd *node, sk *sink) {
	nd.ktilde = int32(s.b.ktilde(int(nd.sD), nd.score))
	if int(nd.ktilde) <= s.spec.KMax {
		sk.sched = append(sk.sched, nd)
	}
}

// merge folds a sink into the shared state.
func (s *incState) merge(sk *sink) {
	s.stats.add(sk.stats)
	s.search.merge(&sk.search)
	for _, nd := range sk.out {
		s.out.add(nd)
	}
	if len(sk.out) > 0 {
		s.dirt = true
	}
	for _, nd := range sk.sched {
		s.buckets[nd.ktilde] = append(s.buckets[nd.ktilde], nd)
	}
}

// fan runs job(i, sk) for every i in [0, n) on the worker pool, each job
// with its own sink and searcher, then merges the sinks in job order. It
// reports false when a job was abandoned because the context was canceled.
func (s *incState) fan(n int, job func(i int, sk *sink)) bool {
	if len(s.sinks) < n {
		s.sinks = append(s.sinks, make([]sink, n-len(s.sinks))...)
	}
	sinks := s.sinks[:n]
	fanOut(s.spec.Workers, n, func(i int) {
		sk := &sinks[i]
		sk.reset(s.ctx)
		sk.sr = s.eng.acquire()
		defer sk.sr.close()
		if s.search != nil {
			sk.sr.ss = &sk.search
		}
		job(i, sk)
	})
	halted := false
	for i := range sinks {
		s.merge(&sinks[i])
		halted = halted || sinks[i].cn.halted
	}
	return !halted
}

// stop marks nd stopped by the bound. Under a lower bound it is biased and
// joins the output set when the sink merges.
func (s *incState) stop(nd *node, sk *sink) {
	nd.stopped = true
	sk.sr.ss.prunedBound()
	if !s.b.upper() {
		sk.admit(nd)
	}
}

// classify files a newly built node at k: a node the bound stops ends the
// descent; any other is scheduled at its k̃ and expanded (under the upper
// bound it is a candidate and joins the output set), so classify reports
// true and the caller builds its children.
func (s *incState) classify(nd *node, k int, sk *sink) bool {
	if s.b.stops(int(nd.sD), nd.score, k) {
		s.stop(nd, sk)
		return false
	}
	if s.b.upper() {
		sk.admit(nd)
	}
	s.scheduleInto(nd, sk)
	nd.expanded = true
	sk.sr.ss.expanded()
	return true
}

// fullBuild runs the complete top-down search at k, materializing the
// explored tree, the output set and the schedule K; as a rebuild it first
// drops the old ones. The root's subtrees build independently on
// the worker pool, and sinks merge in subtree order, matching the serial
// traversal. The root units alias the counting index's posting lists, so
// a warm index starts the build with zero dataset scans. It reports false
// when the build was abandoned because the context was canceled.
func (s *incState) fullBuild(k int) bool {
	s.stats.FullSearches++
	s.roots = s.roots[:0]
	if s.b.upper() {
		s.out = newSpecificSet()
	} else {
		s.out = newDomFrontier()
	}
	clear(s.buckets)
	s.dirt = true
	units := s.eng.rootUnits()
	roots := make([]*node, len(units))
	ok := s.fan(len(units), func(i int, sk *sink) {
		u := &units[i]
		sk.stats.NodesExamined++
		sD := len(u.m.all)
		if sD < s.spec.MinSize {
			sk.sr.ss.prunedSize()
			return
		}
		a := u.p.MaxAttrIdx()
		nd := &node{p: u.p, sD: int32(sD), score: s.b.score(u.m, k), attr: int32(a), val: u.p[a], lvl: 1}
		roots[i] = nd
		if s.classify(nd, k, sk) {
			s.buildChildren(nd, u.m, k, sk)
		}
	})
	for _, nd := range roots {
		if nd != nil {
			s.roots = append(s.roots, nd)
		}
	}
	return ok
}

// buildChildren recursively materializes the explored subtree below
// parent given its match set, appending to parent.children. All side
// effects go to the caller's sink, so concurrent builds of disjoint
// subtrees never touch shared state; partitions live in the sink's arena,
// released per attribute as the recursion unwinds.
func (s *incState) buildChildren(parent *node, m matchSet, k int, sk *sink) {
	n := s.in.Space.NumAttrs()
	for a := parent.p.MaxAttrIdx() + 1; a < n; a++ {
		card := s.in.Space.Cards[a]
		mk := sk.sr.mark()
		cs := sk.sr.childStats(m, a, card, k, s.b.weights)
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
			child := &node{p: parent.p.With(a, int32(v)), sD: int32(sD), score: s.b.childScore(&cs, v),
				attr: int32(a), val: int32(v), lvl: parent.lvl + 1, parent: parent}
			parent.children = append(parent.children, child)
			if s.classify(child, k, sk) {
				s.buildChildren(child, cs.at(v), k, sk)
			}
		}
		sk.sr.release(mk)
	}
}

// step advances the state from k-1 to k. It reports false when the step
// was abandoned because the context was canceled.
func (s *incState) step(k int) bool {
	newRow := s.in.Rows[s.in.Ranking[k-1]]
	gain := s.b.gain(k)

	// The serial phases count into one sink whose searcher reports to the
	// run's SearchStats directly; its flips and schedule inserts apply at
	// its merge.
	ser := &s.ser
	ser.reset(s.ctx)
	ser.sr = searcher{ss: s.search}

	// Phase 1 (selectiveTD): walk only explored nodes the new tuple
	// satisfies; their scores grow. Orphan subtrees below stopped nodes are
	// traversed too so their scores stay fresh. A node is reached only
	// through a matching parent, so its own pair decides the match. A
	// freed node leaves the lower rule's output set; it is a new candidate
	// of the upper rule's.
	var freed []*node
	var walk func(nd *node)
	walk = func(nd *node) {
		if ser.cn.stopped() {
			return
		}
		ser.stats.NodesExamined++
		nd.score += gain
		if nd.stopped {
			if !s.b.stops(int(nd.sD), nd.score, k) {
				nd.stopped = false
				if s.b.upper() {
					ser.admit(nd)
				} else {
					s.out.remove(nd)
				}
				s.scheduleInto(nd, ser)
				freed = append(freed, nd)
				s.dirt = true
			}
		} else if s.b.stops(int(nd.sD), nd.score, k) {
			// Unreachable in exact arithmetic: a node unbiased at k-1 has
			// α·s_D(p)/|D| <= 1 (its score is at most k-1, or E(k-1)),
			// so the gain covers the bound's growth. The float bound can
			// still round across it.
			s.stop(nd, ser)
		} else {
			s.scheduleInto(nd, ser)
		}
		for _, c := range nd.children {
			if newRow[c.attr] == c.val {
				walk(c)
			}
		}
	}
	for _, r := range s.roots {
		if newRow[r.attr] == r.val {
			walk(r)
		}
	}

	// Phase 2: nodes whose k̃ is reached flip to biased unless their score
	// was bumped meanwhile (stale entries are skipped via the ktilde
	// guard). The global bounds schedule nothing.
	for _, nd := range s.buckets[k] {
		if ser.cn.stopped() {
			break
		}
		if nd.stopped || int(nd.ktilde) != k {
			continue
		}
		ser.stats.NodesExamined++
		if s.b.stops(int(nd.sD), nd.score, k) {
			s.stop(nd, ser)
		} else {
			s.scheduleInto(nd, ser)
		}
	}
	s.buckets[k] = nil

	// Phase 3 (searchFromNode): resume the search below frontier nodes
	// that were freed and had no explored children yet. Those subtrees are
	// disjoint, so they expand on the worker pool. Phase 1 freed them in
	// pre-order, so the nodes below one root are consecutive: each such
	// run is one job, whose sink builds the run's match sets in one walk
	// (resume) and merges in the same node order as the serial path.
	var resumed []*node
	for _, nd := range freed {
		if !nd.expanded {
			nd.expanded = true
			ser.sr.ss.expanded()
			resumed = append(resumed, nd)
		}
	}
	s.merge(ser)
	if ser.cn.halted {
		return false
	}
	s.runs = rootRuns(s.runs[:0], resumed)
	return s.fan(len(s.runs), func(i int, sk *sink) {
		s.resume(s.runs[i], k, sk)
	})
}

// rootRuns appends to runs the maximal runs of consecutive nodes under one
// root.
func rootRuns(runs [][]*node, nodes []*node) [][]*node {
	start := 0
	for i := 1; i <= len(nodes); i++ {
		if i == len(nodes) || nodes[i].root() != nodes[i-1].root() {
			runs = append(runs, nodes[start:i])
			start = i
		}
	}
	return runs
}

// root returns the root of nd's search tree.
func (nd *node) root() *node {
	for nd.parent != nil {
		nd = nd.parent
	}
	return nd
}

// resume builds the subtrees below run, resumed nodes under one root in
// pre-order. A resumed node is unexpanded, so it is a leaf, and its match
// set is its tree path's filters from the root posting list. A stack holds
// the sets of the current path: each node pops back to the deepest
// ancestor it shares with the node before it, then filters down one level
// at a time to itself, so a run builds every set on its paths once.
func (s *incState) resume(run []*node, k int, sk *sink) {
	type level struct {
		nd *node
		m  matchSet
		mk arenaMark
	}
	// Paths binding up to 16 attributes stay off the heap; longer ones
	// grow the slices.
	var stackBuf [16]level
	var pathBuf [16]*node
	stack := stackBuf[:0]
	for _, nd := range run {
		path := pathBuf[:0]
		for a := nd; a != nil; a = a.parent {
			path = append(path, a)
		}
		slices.Reverse(path)
		j := 0
		for j < len(stack) && j < len(path) && stack[j].nd == path[j] {
			j++
		}
		if j < len(stack) {
			sk.sr.release(stack[j].mk)
			stack = stack[:j]
		}
		for _, a := range path[j:] {
			l := level{nd: a, mk: sk.sr.mark()}
			if len(stack) == 0 {
				l.m = matchSet{all: s.eng.ix.Postings(int(a.attr), a.val)}
			} else {
				l.m = sk.sr.filter(stack[len(stack)-1].m, int(a.attr), a.val)
			}
			stack = append(stack, l)
		}
		sk.sr.ss.pathFilters(len(path) - 1)
		s.buildChildren(nd, stack[len(stack)-1].m, k, sk)
		if sk.cn.halted {
			return
		}
	}
}

// snapshot returns the reported groups of the output set. Under a lower
// bound they are the most general biased patterns; because biased nodes
// can appear and disappear anywhere in the explored tree (including
// interior nodes with explored descendants), the Res/DRes split lives in
// the domination frontier: each dirty snapshot settles the step's flips
// into it (after a build, from an empty frontier) and folds the
// domination tally into the stats. A clean snapshot reuses the previous
// result. ok is false when the settle was abandoned because the context
// was canceled (the state stays dirty).
func (s *incState) snapshot() (groups []Pattern, ok bool) {
	if !s.dirt {
		return s.res, true
	}
	if s.out.settle(s.ctx, s.spec.Workers) {
		return nil, false
	}
	s.search.addDominated(int64(s.out.ndom()))
	s.dirt = false
	s.res = s.out.emit()
	return s.res, true
}
