package core

import "context"

// iterTD is the ITERTD baseline of Section IV-A for the three lower-bound
// measures: it re-runs the top-down search of Algorithm 1 from scratch for
// every k in [KMin, KMax], spreading the independent per-k searches over
// s.Workers goroutines. Unlike GLOBALBOUNDS it accepts arbitrary
// (including non-monotone) global lower-bound sequences.
func iterTD(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	eng := newEngine(in)
	b := newBound(in, s)
	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		groups, _ := topDownSearch(cn, eng, s.MinSize, k, &b, st, ss)
		sortPatterns(groups)
		return groups
	})
}
