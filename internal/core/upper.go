package core

import (
	"context"
	"fmt"

	"rankfair/internal/pattern"
)

// The paper's body focuses on lower bounds; Section III ("Upper bounds")
// observes that for bounds from above the informative answers are the
// *most specific substantial* patterns: if black females exceed the upper
// bound then so do blacks and females, so the most specific description is
// reported. This file implements that variant for both fairness measures
// with ITERTD-style per-k searches.
//
// Interpretation implemented here: report patterns p with s_D(p) ≥ τs and
// s_{R_k(D)}(p) above the bound such that no proper superset of p also has
// size ≥ τs and count above the bound (the most specific members of the
// substantial-and-exceeding set).

// GlobalUpperParams parameterizes upper-bound detection for the global
// measure: a pattern exceeds at k when its top-k count is > U_k.
type GlobalUpperParams struct {
	// MinSize is the size threshold τs on s_D(p).
	MinSize int
	// KMin, KMax delimit the inclusive range of k values.
	KMin, KMax int
	// Upper holds U_k for each k, indexed k-KMin.
	Upper []int
}

func (p *GlobalUpperParams) validate() error {
	if p.KMin < 1 || p.KMax < p.KMin {
		return fmt.Errorf("core: invalid k range [%d,%d]", p.KMin, p.KMax)
	}
	if p.MinSize < 0 {
		return fmt.Errorf("core: negative size threshold %d", p.MinSize)
	}
	if len(p.Upper) != p.KMax-p.KMin+1 {
		return fmt.Errorf("core: %d upper bounds for k range [%d,%d]", len(p.Upper), p.KMin, p.KMax)
	}
	return nil
}

// IterTDGlobalUpper detects, for each k, the most specific substantial
// patterns whose top-k count exceeds U_k. Exceeding is downward closed
// (every subset of an exceeding pattern exceeds too), so the search prunes
// subtrees whose root no longer exceeds, and maximality reduces to having
// no exceeding pattern-graph child.
func IterTDGlobalUpper(in *Input, params GlobalUpperParams) (*Result, error) {
	return IterTDGlobalUpperCtx(context.Background(), in, params, 1)
}

// IterTDGlobalUpperCtx is IterTDGlobalUpper with cancellation and per-k
// fan-out: ctx aborts the search mid-lattice with a CanceledError, and the
// independent per-k searches spread over workers goroutines (<= 0 means
// GOMAXPROCS, 1 is serial). Results are identical for every worker count.
func IterTDGlobalUpperCtx(ctx context.Context, in *Input, params GlobalUpperParams, workers int) (*Result, error) {
	if err := prepare(in, params.KMax, params.validate()); err != nil {
		return nil, err
	}
	eng := newEngine(in)
	return runPerK(ctx, eng, params.KMin, params.KMax, workers, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		u := params.Upper[k-params.KMin]
		cands := collectExceeding(cn, eng, params.MinSize, k, st, ss, func(sD, cnt int) (candidate, descend bool) {
			c := cnt > u
			return c, c // prune when not exceeding: children have count <= cnt
		})
		groups := mostSpecificByChildLookup(in.Space, cands)
		sortPatterns(groups)
		return groups
	})
}

// PropUpperParams parameterizes upper-bound detection for the proportional
// measure: a pattern exceeds at k when its top-k count is > β·s_D(p)·k/|D|.
type PropUpperParams struct {
	// MinSize is the size threshold τs on s_D(p).
	MinSize int
	// KMin, KMax delimit the inclusive range of k values.
	KMin, KMax int
	// Beta is the proportionality slack, > Alpha of the lower-bound side.
	Beta float64
}

func (p *PropUpperParams) validate() error {
	if p.KMin < 1 || p.KMax < p.KMin {
		return fmt.Errorf("core: invalid k range [%d,%d]", p.KMin, p.KMax)
	}
	if p.MinSize < 0 {
		return fmt.Errorf("core: negative size threshold %d", p.MinSize)
	}
	if p.Beta <= 0 {
		return fmt.Errorf("core: beta must be positive, got %v", p.Beta)
	}
	return nil
}

// IterTDPropUpper detects, for each k, the most specific substantial
// patterns whose top-k count exceeds β·s_D(p)·k/|D|. Exceeding is not
// downward closed for the proportional measure, so the search only prunes
// subtrees that provably contain no candidate (count ≤ β·τs·k/|D| bounds
// every descendant's count below every descendant's bound) and maximality
// uses a full superset check.
func IterTDPropUpper(in *Input, params PropUpperParams) (*Result, error) {
	return IterTDPropUpperCtx(context.Background(), in, params, 1)
}

// IterTDPropUpperCtx is IterTDPropUpper with cancellation and per-k
// fan-out (see IterTDGlobalUpperCtx).
func IterTDPropUpperCtx(ctx context.Context, in *Input, params PropUpperParams, workers int) (*Result, error) {
	if err := prepare(in, params.KMax, params.validate()); err != nil {
		return nil, err
	}
	n := float64(len(in.Rows))
	eng := newEngine(in)
	return runPerK(ctx, eng, params.KMin, params.KMax, workers, func(cn *canceler, st *Stats, ss *SearchStats, k int) []Pattern {
		floor := params.Beta * float64(params.MinSize) * float64(k) / n
		cands := collectExceeding(cn, eng, params.MinSize, k, st, ss, func(sD, cnt int) (candidate, descend bool) {
			c := float64(cnt) > params.Beta*float64(sD)*float64(k)/n
			return c, float64(cnt) > floor
		})
		groups := pattern.MostSpecific(cands)
		sortPatterns(groups)
		return groups
	})
}

// collectExceeding runs a top-down search that prunes on the size threshold
// and on the classify callback's descend decision, returning every pattern
// classified as a candidate. The search polls cn once per node and returns
// early when the caller's context is canceled. Frontier match sets live in
// the traversal's ring arena (see bfs.go); only candidates and descents
// materialize a Pattern.
func collectExceeding(cn *canceler, eng *engine, minSize, k int, stats *Stats, ss *SearchStats, classify func(sD, cnt int) (candidate, descend bool)) []Pattern {
	stats.FullSearches++
	var cands []Pattern
	q := eng.newBFS()
	defer q.close()
	for q.more() {
		if cn.stopped() {
			return nil
		}
		u := q.pop()
		stats.NodesExamined++
		sD := len(u.m.all)
		if sD < minSize {
			ss.prunedSize()
			continue
		}
		candidate, descend := classify(sD, eng.topCount(u.m, k))
		var p pattern.Pattern
		if candidate || descend {
			p = q.pat(&u)
		}
		if candidate {
			ss.frontier(p)
			cands = append(cands, p)
		}
		if descend {
			ss.expanded()
			q.expand(&u, p)
		} else {
			ss.prunedBound()
		}
	}
	return cands
}

// mostSpecificByChildLookup filters a downward-closed candidate set to its
// maximal members: candidates none of whose pattern-graph children is a
// candidate.
func mostSpecificByChildLookup(space *pattern.Space, cands []Pattern) []Pattern {
	in := make(map[string]bool, len(cands))
	for _, p := range cands {
		in[p.Key()] = true
	}
	var out []Pattern
	for _, p := range cands {
		maximal := true
	scan:
		for a := 0; a < space.NumAttrs(); a++ {
			if p[a] != pattern.Unbound {
				continue
			}
			for v := 0; v < space.Cards[a]; v++ {
				if in[p.With(a, int32(v)).Key()] {
					maximal = false
					break scan
				}
			}
		}
		if maximal {
			out = append(out, p)
		}
	}
	return out
}
