package core

import "context"

// iterTDGlobal is the ITERTD baseline of Section IV-A for global bounds
// (Problem 3.1): it re-runs the top-down search of Algorithm 1 from scratch
// for every k in [KMin, KMax], spreading the independent per-k searches
// over s.Workers goroutines. Unlike GLOBALBOUNDS it accepts arbitrary
// (including non-monotone) lower-bound sequences.
func iterTDGlobal(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	return iterTD(ctx, in, s, globalMeasure{spec: s})
}

// iterTDProp is the ITERTD baseline for proportional representation
// (Problem 3.2): Algorithm 1 with the proportional lower bound, re-run from
// scratch for every k in [KMin, KMax].
func iterTDProp(ctx context.Context, in *Input, s *Spec) (*Result, error) {
	return iterTD(ctx, in, s, propMeasure{alpha: s.Alpha, n: len(in.Rows)})
}

func iterTD(ctx context.Context, in *Input, s *Spec, meas measure) (*Result, error) {
	eng := newEngine(in)
	return runPerK(ctx, eng, s, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		groups, _ := topDownSearch(cn, eng, s.MinSize, k, meas, st, ss)
		sortPatterns(groups)
		return groups
	})
}
