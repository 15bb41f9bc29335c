package core

import (
	"context"
	"math"
)

// The paper's conclusion lists "the extension of the framework to support
// other fairness measures" as future work. This file adds one such measure
// from the fairness-in-ranking literature the paper builds on: exposure
// (Singh & Joachims, KDD'18, the paper's [34]). Position i in the ranking
// carries exposure 1/log2(i+1); a group's exposure in the top-k is the sum
// over its members' positions. Proportional exposure fairness requires
//
//	exposure_k(p) >= α · s_D(p) · E(k) / |D|
//
// where E(k) is the total exposure of the first k positions. Unlike plain
// counts, exposure distinguishes *where* in the prefix a group sits: a
// group packed into positions k-9..k earns far less exposure than one
// holding positions 1..10, exactly the phenomenon the paper's Section III
// example describes (urban students in positions 1-5 vs 6-10).

// PositionExposure returns the exposure weight of 1-based rank position i.
func PositionExposure(i int) float64 {
	return 1 / math.Log2(float64(i)+1)
}

// PatternExposure returns the exposure of pattern p in the top-k of the
// ranking: the sum of position weights over its members there.
func PatternExposure(in *Input, p Pattern, k int) float64 {
	if k > len(in.Ranking) {
		k = len(in.Ranking)
	}
	total := 0.0
	for i := 0; i < k; i++ {
		if p.Matches(in.Rows[in.Ranking[i]]) {
			total += PositionExposure(i + 1)
		}
	}
	return total
}

// iterTDExposure detects, for each k in range, the most general patterns
// with size >= τs whose exposure in the top-k falls below α·s_D(p)·E(k)/|D|.
// The search follows Algorithm 1 with the weighted measure: like the
// proportional count measure, exposure bias is not monotone along the
// pattern graph, so children of unbiased patterns are explored and biased
// patterns close their subtrees (their descendants cannot be most general).
func iterTDExposure(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	nf := float64(len(in.Rows))

	// wByRank[r] is the exposure of rank position r and its prefix sum
	// gives E(k). Both are read-only under the fan-out, as is the engine.
	wByRank := make([]float64, s.KMax)
	totalExposure := make([]float64, s.KMax+1)
	for i := 0; i < s.KMax; i++ {
		wByRank[i] = PositionExposure(i + 1)
		totalExposure[i+1] = totalExposure[i] + wByRank[i]
	}
	eng := newEngine(in)
	eng.weightByRank = wByRank

	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		st.FullSearches++
		ek := totalExposure[k]
		filt := newSubsetFilter()
		q := eng.newBFS()
		defer q.close()
		for q.more() {
			if cn.stopped() {
				return nil
			}
			u := q.pop()
			st.NodesExamined++
			sD := len(u.m.all)
			if sD < s.MinSize {
				ss.prunedSize()
				continue
			}
			exp := eng.exposureOf(u.m, k)
			if exp < s.Alpha*float64(sD)*ek/nf {
				p := q.pat(&u)
				ss.prunedBound()
				if !filt.dominated(p) {
					ss.frontier(p)
					filt.add(p)
				} else {
					ss.addDominated(1)
				}
				continue
			}
			ss.expanded()
			q.expand(&u, q.pat(&u))
		}
		groups := filt.res
		sortPatterns(groups)
		return groups
	})
}
