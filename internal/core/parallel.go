package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// Two independent axes of parallelism coexist in this package:
//
//   - Across k: the per-k searches of ITERTD are independent, so runPerK
//     fans the k values out over workers.
//   - Inside one search: the incremental searches (the lower-bound engine
//     and the upper-bound search) are inherently sequential in k (each
//     step consumes the previous frontier), but the subtrees below the
//     root of one build — and the resumed subtrees of one step — are
//     independent, as are the domination scans within one generality
//     level of the frontier. fanOut covers those; per-worker sinks collect
//     side effects which are merged in deterministic order, so parallel
//     results are byte-identical to the serial path.

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

// runPerK runs one independent search per k in [s.KMin, s.KMax] on up to
// s.Workers fanOut slots, assembling the per-k group sets into a Result.
// fanOut hands the k values out on demand, so a free slot takes the next
// k. Each k owns a Stats, a SearchStats and a canceler; group slices land
// in distinct per-k slots and the stats sum is order-independent, so the
// assembled result is identical to a serial run. When the context is
// canceled the searches stop mid-traversal, the k values not yet started
// are skipped, and the partial result is discarded.
func runPerK(ctx context.Context, eng *engine, s *Spec, body func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	kMin, kMax := s.KMin, s.KMax
	span := kMax - kMin + 1
	res := &Result{KMin: kMin, KMax: kMax, Groups: make([][]Pattern, span)}
	statsPer := make([]Stats, span)
	var searchPer []SearchStats
	if res.Search = eng.newSearchStats(min(s.Workers, span)); res.Search != nil {
		searchPer = make([]SearchStats, span)
	}
	haltedPer := make([]bool, span)
	fanOut(s.Workers, span, func(i int) {
		if preflight(ctx) != nil {
			haltedPer[i] = true
			return
		}
		cn := canceler{ctx: ctx}
		var ss *SearchStats
		if searchPer != nil {
			ss = &searchPer[i]
		}
		groups := body(&cn, &statsPer[i], ss, kMin+i)
		haltedPer[i] = cn.halted
		if !cn.halted { // a halted search's groups are partial: discard
			res.Groups[i] = groups
		}
	})
	halted := false
	for i := range statsPer {
		res.Stats.add(statsPer[i])
		halted = halted || haltedPer[i]
	}
	for i := range searchPer {
		res.Search.merge(&searchPer[i])
	}
	if halted {
		return nil, canceledErr(ctx, res.Stats.NodesExamined)
	}
	return res, nil
}
