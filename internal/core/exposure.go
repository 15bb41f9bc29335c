package core

import "math"

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
