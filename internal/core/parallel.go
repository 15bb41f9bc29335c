package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"rankfair/internal/pattern"
)

// Two independent axes of parallelism coexist in this package:
//
//   - Across k: the per-k searches of the ITERTD baselines are independent,
//     so runPerK fans the k values out over workers.
//   - Inside one search: the incremental algorithms are inherently
//     sequential in k (each step consumes the previous frontier), but the
//     subtrees below the root of one build — and the resumed subtrees of
//     one step — are independent, as is the per-pattern domination filter.
//     fanOut and markDominated cover those; per-worker sinks collect side
//     effects which are merged in deterministic order, so parallel results
//     are byte-identical to the serial path.

// normWorkers maps the public workers knob onto a concrete fan-out width:
// <= 0 selects GOMAXPROCS, anything positive is used as given.
func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// fanOut invokes run(i) for every i in [0, n), spreading the calls over at
// most workers goroutines. With workers <= 1 (or a single job) the calls
// run inline, so the serial and parallel paths share one code route. run
// must only write to per-i state; fanOut returns after every call finished.
func fanOut(workers, n int, run func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// runPerK runs one independent search per k in [kMin, kMax] on up to
// workers goroutines, assembling the per-k group sets into a Result. Each
// worker owns a Stats and a canceler; group slices land in distinct per-k
// slots and the stats sum is order-independent, so the assembled result is
// identical to a serial run. When the context is canceled the workers stop
// mid-traversal and the partial result is discarded.
func runPerK(ctx context.Context, eng *engine, kMin, kMax, workers int, body func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	workers = normWorkers(workers)
	span := kMax - kMin + 1
	if workers > span {
		workers = span
	}
	res := &Result{KMin: kMin, KMax: kMax, Groups: make([][]Pattern, span)}
	statsPer := make([]Stats, workers)
	var searchPer []SearchStats
	if res.Search = eng.newSearchStats(workers); res.Search != nil {
		searchPer = make([]SearchStats, workers)
	}
	var next atomic.Int64
	next.Store(int64(kMin) - 1)
	work := func(w int) bool {
		cn := canceler{ctx: ctx}
		var ss *SearchStats
		if searchPer != nil {
			ss = &searchPer[w]
		}
		for !cn.halted {
			k := int(next.Add(1))
			if k > kMax {
				break
			}
			groups := body(&cn, &statsPer[w], ss, k)
			if cn.halted {
				break // partial per-k result: discard
			}
			res.Groups[k-kMin] = groups
		}
		return cn.halted
	}
	halted := false
	if workers <= 1 {
		halted = work(0)
	} else {
		haltedPer := make([]bool, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				haltedPer[w] = work(w)
			}(w)
		}
		wg.Wait()
		for _, h := range haltedPer {
			halted = halted || h
		}
	}
	for _, s := range statsPer {
		res.Stats.add(s)
	}
	for i := range searchPer {
		res.Search.merge(&searchPer[i])
	}
	if halted {
		return nil, canceledErr(ctx, res.Stats.NodesExamined)
	}
	return res, nil
}

// markDominated computes, over patterns sorted by (NumAttrs, Key), which
// ones have a proper subset among the most general members of the same
// slice: mask[i] is true iff some non-dominated earlier pattern is a proper
// subset of ps[i]. Because a proper subset always has strictly fewer bound
// attributes, patterns within one generality level cannot dominate each
// other, so each level is checked against the accepted prefix concurrently.
// The scan reuses the subsetFilter attribute-bitmask prefilter: each
// pattern's bound-attribute set folds into one uint64 (attrMask), and a
// candidate only pays a ProperSubsetOf comparison against accepted patterns
// whose mask can nest inside its own — on the wide biased frontiers of the
// proportional staircase sweep this skips the vast majority of pairs with
// one AND-NOT each. This filter is the quadratic hot spot on adversarial
// workloads (the Theorem 3.3 construction yields C(n, n/2) mutually
// incomparable groups), which is why it fans out alongside the tree build —
// and why it polls ctx (per level, then every 64 scans and every 4096
// subset checks): the cancellation-latency bound must cover the dominant
// cost, not just the tree traversal. When canceled it reports halted=true
// and the partial mask is meaningless.
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
// or -1 when ps[i] is most general. The witnesses are what lets the
// incremental domination frontier (domFrontier) bulk-seed from this pass
// and then maintain the split by membership deltas. When halted the
// partial wit slice is meaningless.
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
