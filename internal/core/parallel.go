package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// Two independent axes of parallelism coexist in this package:
//
//   - Across k: the per-k searches of the ITERTD baselines are independent,
//     so runPerK fans the k values out over workers.
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
// s.Workers goroutines, assembling the per-k group sets into a Result. Each
// worker owns a Stats and a canceler; group slices land in distinct per-k
// slots and the stats sum is order-independent, so the assembled result is
// identical to a serial run. When the context is canceled the workers stop
// mid-traversal and the partial result is discarded.
func runPerK(ctx context.Context, eng *engine, s *Spec, body func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern) (*Result, error) {
	if err := preflight(ctx); err != nil {
		return nil, err
	}
	kMin, kMax := s.KMin, s.KMax
	span := kMax - kMin + 1
	workers := min(s.Workers, span)
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
