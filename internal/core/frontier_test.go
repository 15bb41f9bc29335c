package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rankfair/internal/pattern"
)

// markDominated is the from-scratch domination split the frontier is
// checked against: over patterns sorted by (NumAttrs, Key), mask[i] is
// true iff some non-dominated earlier pattern is a proper subset of ps[i].
// It is the level-parallel, mask-prefiltered pass the incremental searches
// ran over their whole frontier before domFrontier settled the split as a
// delta. When canceled it reports halted=true and the partial mask is
// meaningless.
func markDominated(ctx context.Context, ps []pattern.Pattern, workers int) (mask []bool, halted bool) {
	wit, halted := markDominatedWitness(ctx, ps, workers)
	mask = make([]bool, len(ps))
	for i, w := range wit {
		mask[i] = w >= 0
	}
	return mask, halted
}

// markDominatedWitness is markDominated with witness recording: wit[i] is
// the ps-index of the accepted proper subset that proved ps[i] dominated,
// or -1 when ps[i] is most general. Patterns within one generality level
// cannot dominate each other, so each level is checked against the
// accepted prefix concurrently; ctx is polled per level, then every 64
// scans and every 4096 subset checks.
func markDominatedWitness(ctx context.Context, ps []pattern.Pattern, workers int) (wit []int32, halted bool) {
	wit = make([]int32, len(ps))
	for i := range wit {
		wit[i] = -1
	}
	pms := make([]uint64, len(ps))
	for i, p := range ps {
		pms[i] = attrMask(p)
	}
	var stop atomic.Bool
	var res []pattern.Pattern
	var resMasks []uint64
	var resIdx []int32
	for start := 0; start < len(ps); {
		if ctx != nil && ctx.Err() != nil {
			return wit, true
		}
		end := start
		lvl := ps[start].NumAttrs()
		for end < len(ps) && ps[end].NumAttrs() == lvl {
			end++
		}
		fanOut(workers, end-start, func(i int) {
			if stop.Load() {
				return
			}
			if i&63 == 0 && ctx != nil && ctx.Err() != nil {
				stop.Store(true)
				return
			}
			p := ps[start+i]
			pm := pms[start+i]
			for j, qm := range resMasks {
				if j&4095 == 4095 && stop.Load() {
					return
				}
				if qm&^pm == 0 && res[j].ProperSubsetOf(p) {
					wit[start+i] = resIdx[j]
					return
				}
			}
		})
		if stop.Load() {
			return wit, true
		}
		for i := start; i < end; i++ {
			if wit[i] < 0 {
				res = append(res, ps[i])
				resMasks = append(resMasks, pms[i])
				resIdx = append(resIdx, int32(i))
			}
		}
		start = end
	}
	return wit, false
}

// sortNodes orders nodes by (number of bound attributes, canonical key) —
// the order the frontier emits Res in, applied from scratch.
func sortNodes(nodes []*node) {
	slices.SortFunc(nodes, func(a, b *node) int {
		if na, nb := a.p.NumAttrs(), b.p.NumAttrs(); na != nb {
			return na - nb
		}
		return strings.Compare(a.p.Key(), b.p.Key())
	})
}

// tfPool enumerates every non-empty pattern over a small space — dense
// enough that subset chains (and therefore witness hand-offs on removal)
// occur constantly under random membership churn.
func tfPool(cards []int) []pattern.Pattern {
	n := len(cards)
	var pool []pattern.Pattern
	var rec func(a int, p pattern.Pattern)
	rec = func(a int, p pattern.Pattern) {
		if a == n {
			if p.NumAttrs() > 0 {
				pool = append(pool, append(pattern.Pattern(nil), p...))
			}
			return
		}
		rec(a+1, p) // leave unbound
		for v := 0; v < cards[a]; v++ {
			p[a] = int32(v)
			rec(a+1, p)
		}
		p[a] = pattern.Unbound
	}
	rec(0, pattern.Empty(n))
	return pool
}

// tfOracle recomputes the Res split from scratch — sort the member set,
// run the bulk markDominated pass, filter.
func tfOracle(t *testing.T, members []*node, workers int) []Pattern {
	t.Helper()
	nodes := append([]*node(nil), members...)
	sortNodes(nodes)
	ps := make([]pattern.Pattern, len(nodes))
	for i, nd := range nodes {
		ps[i] = nd.p
	}
	mask, halted := markDominated(context.Background(), ps, workers)
	if halted {
		t.Fatal("oracle markDominated halted without cancellation")
	}
	out := make([]Pattern, 0, len(ps))
	for i := range ps {
		if !mask[i] {
			out = append(out, ps[i])
		}
	}
	return out
}

// tfCompare asserts the frontier's emitted Res equals the full-recompute
// oracle element for element, in order, and that ndom counts the rest.
func tfCompare(t *testing.T, f *domFrontier, members map[int]*node, step string) {
	t.Helper()
	list := make([]*node, 0, len(members))
	for _, nd := range members {
		list = append(list, nd)
	}
	want := tfOracle(t, list, 4)
	got := f.emit()
	if got == nil {
		t.Fatalf("%s: emit() returned nil, want non-nil", step)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: emit %d patterns, oracle %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: emit[%d] = %s, oracle %s", step, i, got[i].Key(), want[i].Key())
		}
	}
	if wantDom := len(members) - len(want); f.ndom() != wantDom {
		t.Fatalf("%s: ndom = %d, oracle %d", step, f.ndom(), wantDom)
	}
}

// tfChurn drives a frontier over a pattern pool the way the searches do:
// each pool pattern is held by at most one member node at a time, and a
// node points at the node that last held its tree parent's pattern when
// it was made, which may have left the frontier since.
type tfChurn struct {
	pool    []pattern.Pattern
	index   map[string]int // pattern key → pool index
	f       *domFrontier
	members map[int]*node // pool index → member node
	last    map[int]*node // pool index → the node that held it last
	// chained counts removals of a witness one of whose dependents is
	// itself the witness of another member.
	chained int
}

func newTFChurn(pool []pattern.Pattern) *tfChurn {
	index := map[string]int{}
	for i, p := range pool {
		index[p.Key()] = i
	}
	return &tfChurn{pool: pool, index: index, f: newDomFrontier(),
		members: map[int]*node{}, last: map[int]*node{}}
}

// flip toggles pool pattern i. A member is removed; otherwise the pattern
// is admitted again — through the very node that last held it when reuse
// is set and one exists, through a distinct fresh node with the same
// pattern otherwise.
func (c *tfChurn) flip(i int, reuse bool) {
	if nd, ok := c.members[i]; ok {
		for d := nd.deps; d != nil; d = d.depNext {
			if d.deps != nil {
				c.chained++
				break
			}
		}
		c.f.remove(nd)
		delete(c.members, i)
		return
	}
	nd := c.last[i]
	if nd == nil || !reuse {
		p := c.pool[i]
		nd = &node{p: p, lvl: int32(p.NumAttrs())}
		if j, ok := c.index[p.TreeParent().Key()]; ok {
			nd.parent = c.last[j]
		}
	}
	c.f.add(nd)
	c.members[i] = nd
	c.last[i] = nd
}

// settle settles the frontier without cancellation and checks it against
// the oracle.
func (c *tfChurn) settle(t *testing.T, workers int, step string) {
	t.Helper()
	if c.f.settle(context.Background(), workers) {
		t.Fatalf("%s: settle halted without cancellation", step)
	}
	tfCompare(t, c.f, c.members, step)
}

// TestFrontierMatchesBulkRecompute is the differential for the delta
// settle: random membership churn over two nested pattern pools, settled
// in batches of every size from a single flip to a few hundred (far more
// flips than members), at one and four workers, with the frontier
// compared against the full sort-then-markDominated recompute after every
// settle. The churn exercises witness hand-off on removal (a dominated
// member whose witness leaves must find a replacement subset or resurface
// into Res), domination of accepted survivors by lower-level adds, a node
// removed and re-added within one batch, and a node removed while a
// distinct node with the same pattern is added. Each script must also
// remove witnesses whose dependents witness other members in turn.
func TestFrontierMatchesBulkRecompute(t *testing.T) {
	for _, tc := range []struct {
		cards       []int
		first, drop int // the first batch's adds and removals
	}{
		{[]int{2, 3, 2, 3}, 48, 12},
		{[]int{2, 3, 2, 3, 2}, 144, 36},
	} {
		pool := tfPool(tc.cards)
		for _, workers := range []int{1, 4} {
			c := tfChurnScript(t, pool, tc.first, tc.drop, workers)
			if c.chained == 0 {
				t.Fatalf("cards %v workers=%d: no witness with a witnessing dependent was removed", tc.cards, workers)
			}
		}
	}
}

// tfChurnScript runs the churn script of TestFrontierMatchesBulkRecompute
// over pool and returns the drained churn.
func tfChurnScript(t *testing.T, pool []pattern.Pattern, first, drop, workers int) *tfChurn {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := newTFChurn(pool)

	// The first settle starts from an empty member set, with removals
	// of not-yet-settled members folded away.
	for _, i := range rng.Perm(len(pool))[:first] {
		c.flip(i, false)
	}
	for _, i := range rng.Perm(len(pool))[:drop] {
		c.flip(i, false)
	}
	c.settle(t, workers, "first settle")

	for round := 0; round < 200; round++ {
		size := 1 + rng.Intn(300)
		if round < 40 {
			size = 1 + round%4 // small batches first
		}
		for op := 0; op < size; op++ {
			c.flip(rng.Intn(len(pool)), rng.Intn(2) == 0)
		}
		c.settle(t, workers, "churn")
	}

	// Remove a member and re-add the same node in one batch: the net
	// delta is empty and the split must not move.
	for i, nd := range c.members {
		c.flip(i, true)
		c.flip(i, true)
		if c.members[i] != nd {
			t.Fatal("re-add did not reuse the removed node")
		}
		break
	}
	c.settle(t, workers, "remove then re-add")

	// Remove every member and admit a distinct node with the same
	// pattern in one batch: every survivor goes, every witness with it.
	held := make([]int, 0, len(c.members))
	for i := range c.members {
		held = append(held, i)
	}
	for _, i := range held {
		c.flip(i, false)
		c.flip(i, false)
	}
	c.settle(t, workers, "replace every node")

	// Drain to empty: emit must stay exact (and non-nil) all the way down.
	for i := range c.members {
		c.flip(i, false)
		c.settle(t, workers, "drain")
	}
	if got := c.f.emit(); got == nil || len(got) != 0 {
		t.Fatalf("drained frontier emit = %v, want empty non-nil", got)
	}
	return c
}

// TestFrontierSeedCancellation proves the bounded-cancel guarantee covers
// the first settle, where every member is an add: a canceled settle keeps
// the whole membership, and a later settle over it matches the oracle.
func TestFrontierSeedCancellation(t *testing.T) {
	pool := tfPool([]int{2, 2, 2, 2})
	c := newTFChurn(pool)
	for i := range pool {
		c.flip(i, false)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !c.f.settle(ctx, 4) {
		t.Fatal("first settle with canceled context reported success")
	}
	if !c.f.stale {
		t.Fatal("halted settle did not mark the split stale")
	}
	if len(c.f.all) != len(c.members) || len(c.f.ops) != 0 {
		t.Fatalf("halted settle left %d members and %d ops, want %d members folded in",
			len(c.f.all), len(c.f.ops), len(c.members))
	}
	c.settle(t, 4, "after re-settle")
}

// TestFrontierHaltedSettleRecovers pins the halt contract of the delta
// settle: a settle abandoned at any point of its level walk keeps the
// merged membership, and a later settle — with or without further flips —
// rebuilds the exact split.
func TestFrontierHaltedSettleRecovers(t *testing.T) {
	pool := tfPool([]int{2, 3, 2, 3})
	for budget := int64(0); budget < 6; budget++ {
		rng := rand.New(rand.NewSource(budget))
		c := newTFChurn(pool)
		for i := 0; i < 40; i++ {
			c.flip(i, false)
		}
		c.settle(t, 1, "first settle")
		// A batch with removals, a remove-then-re-add of the same node and
		// adds on every level, settled under a context that cancels after
		// budget polls.
		c.flip(0, false)
		c.flip(1, true)
		c.flip(1, true)
		for op := 0; op < 70; op++ {
			c.flip(rng.Intn(len(pool)), rng.Intn(2) == 0)
		}
		want := len(c.members)
		if !c.f.settle(newBudgetCtx(budget), 1) {
			// The budget outlived the walk: the split must be the real one.
			tfCompare(t, c.f, c.members, "budget outlived settle")
			continue
		}
		if len(c.f.all) != want {
			t.Fatalf("budget %d: halted settle kept %d members, want %d", budget, len(c.f.all), want)
		}
		if budget%2 == 0 {
			c.flip(rng.Intn(len(pool)), false)
		}
		c.settle(t, 1, "recovery settle")
	}
}

// FuzzFrontierSettle drives the frontier with arbitrary op sequences over
// a small pattern pool and checks every completed settle against the
// oracle. Each byte is one op: below 0xE0 it flips pool pattern b&0x7f
// (the high bit re-admits through the node that last held the pattern),
// 0xE0-0xEF settles under a context that cancels after b&0xf polls, and
// 0xF0-0xFF settles at one or three workers and compares.
func FuzzFrontierSettle(f *testing.F) {
	pool := tfPool([]int{2, 3, 2})
	f.Add([]byte{0, 1, 2, 3, 0xF0, 0, 0x80, 0xF1})
	f.Add([]byte{5, 10, 20, 30, 0xE1, 5, 0xF0, 0x85, 31, 0xE0, 0xF1})
	f.Add([]byte{34, 33, 32, 1, 2, 0xF0, 1, 2, 0x81, 0x82, 0xF1, 34, 0xF0})
	// {A1=0, A2=0} (14) witnesses {A1=0, A2=0, A3=0} (15); the later add
	// {A1=0} (11) dominates 14, and removing 11 orphans 14 while it still
	// witnesses 15.
	f.Add([]byte{14, 15, 0xF0, 11, 0xF1, 11, 0xF0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := newTFChurn(pool)
		for _, b := range ops {
			switch {
			case b >= 0xF0:
				c.settle(t, 1+2*int(b&1), "fuzz settle")
			case b >= 0xE0:
				c.f.settle(newBudgetCtx(int64(b&0xf)), 2)
			default:
				c.flip(int(b&0x7f)%len(pool), b&0x80 != 0)
			}
		}
		c.settle(t, 2, "final settle")
	})
}

// TestIncrementalCancellationSweep sweeps the poll budget so the
// cancellation lands in every phase of the incremental searches — root
// setup, the first settle, and the per-k frontier flips — and requires the
// bounded-latency guarantee (or a clean completion) at each landing spot.
func TestIncrementalCancellationSweep(t *testing.T) {
	in := denseCancelInput(10, 300)
	const bound = 64 * cancelStride
	runs := map[string]func(ctx context.Context) (*Result, error){
		"PropBounds": func(ctx context.Context) (*Result, error) {
			return Search(ctx, in, Spec{Measure: MeasureProp, MinSize: 1, KMin: 10, KMax: 40, Alpha: 0.8, Workers: 2})
		},
		"ExposureBounds": func(ctx context.Context) (*Result, error) {
			return Search(ctx, in, Spec{Measure: MeasureExposure, MinSize: 1, KMin: 10, KMax: 40, Alpha: 0.8, Workers: 2})
		},
		"GlobalBounds": func(ctx context.Context) (*Result, error) {
			return Search(ctx, in, Spec{Measure: MeasureGlobal, MinSize: 1, KMin: 10, KMax: 40,
				Lower: ConstantBounds(10, 40, 1), Workers: 2})
		},
	}
	for name, run := range runs {
		want, err := run(context.Background())
		if err != nil {
			t.Fatalf("%s: uncanceled run failed: %v", name, err)
		}
		for _, budget := range []int64{1, 5, 25, 125, 625, 3125} {
			res, err := run(newBudgetCtx(budget))
			if err == nil {
				// Budget outlived the search: the result must be the real one.
				if len(res.Groups) != len(want.Groups) {
					t.Errorf("%s budget=%d: completed with %d k-groups, want %d",
						name, budget, len(res.Groups), len(want.Groups))
				}
				continue
			}
			var cerr *CanceledError
			if !errors.As(err, &cerr) {
				t.Errorf("%s budget=%d: want CanceledError, got %v", name, budget, err)
				continue
			}
			if cerr.NodesExamined > int64(bound)+budget*cancelStride {
				t.Errorf("%s budget=%d: examined %d nodes after cancellation, bound %d",
					name, budget, cerr.NodesExamined, int64(bound)+budget*cancelStride)
			}
		}
	}
}
