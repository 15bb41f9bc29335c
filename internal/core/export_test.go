package core

import "context"

// bg is the context of searches a test does not cancel.
var bg = context.Background()

// baseline returns s with the ITERTD baseline selected.
func baseline(s Spec) Spec { s.Baseline = true; return s }

// as returns s retargeted at measure m (same bounds, another semantics).
func as(m string, s Spec) Spec { s.Measure = m; return s }

// workers returns s with its fan-out set to w.
func workers(s Spec, w int) Spec { s.Workers = w; return s }

// NamedSpecs lists the eleven searches Search dispatches to, keyed by the
// algorithm each runs, from one parameter set per threshold: gp (Lower),
// pp and ep (Alpha), gup (Upper), pup (Beta). The keys label the
// subtests of the package's differential suites.
func NamedSpecs(gp, pp, ep, gup, pup Spec) map[string]Spec {
	return map[string]Spec{
		"GlobalBounds":                  gp,
		"IterTDGlobal":                  baseline(gp),
		"PropBounds":                    pp,
		"IterTDProp":                    baseline(pp),
		"ExposureBounds":                ep,
		"IterTDExposure":                baseline(ep),
		"GlobalUpperBounds":             gup,
		"IterTDGlobalUpper":             baseline(gup),
		"IterTDPropUpper":               pup,
		"IterTDGlobalUpperMostGeneral":  as(MeasureUpperGeneral, gup),
		"IterTDGlobalLowerMostSpecific": as(MeasureLowerSpecific, gp),
	}
}

// ChildSplitter drives the engine's child split outside a search: one
// worker's searcher, counting into its own stats.
type ChildSplitter struct {
	sr    searcher
	stats SearchStats
}

// NewChildSplitter returns a splitter over in's attached index.
func NewChildSplitter(in *Input) *ChildSplitter {
	c := &ChildSplitter{sr: newEngine(in).acquire()}
	c.sr.ss = &c.stats
	return c
}

// ChildSplit is one attribute's split of a match set, holding the arena
// from Split to Release.
type ChildSplit struct {
	cs childStats
	mk arenaMark
}

// Split marks the arena and tallies m's children at attribute a for the
// top-k, as a search node does before it visits them.
func (c *ChildSplitter) Split(m []int32, a, k int) *ChildSplit {
	mk := c.sr.mark()
	return &ChildSplit{cs: c.sr.childStats(matchSet{all: m}, a, c.sr.in.Space.Cards[a], k, nil), mk: mk}
}

// Size returns s_D of child v.
func (s *ChildSplit) Size(v int) int { return s.cs.size(v) }

// At returns child v's match set.
func (s *ChildSplit) At(v int) []int32 { return s.cs.at(v).all }

// Release returns the split's arena allocations.
func (c *ChildSplitter) Release(s *ChildSplit) { c.sr.release(s.mk) }

// Scribble allocates n arena entries, overwrites them with -1 and releases
// them, as a subtree that used the arena and returned it would.
func (c *ChildSplitter) Scribble(n int) {
	mk := c.sr.mark()
	for i, out := 0, c.sr.scr.ints.alloc(n); i < n; i++ {
		out[i] = -1
	}
	c.sr.release(mk)
}

// LazyScatters returns the splitter's LazyScatters counter.
func (c *ChildSplitter) LazyScatters() int64 { return c.stats.LazyScatters }

// Close returns the searcher's scratch to the pool.
func (c *ChildSplitter) Close() { c.sr.close() }
