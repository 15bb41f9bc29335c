package core

import "rankfair/internal/pattern"

// SearchStats records per-run observability counters of the lattice
// search: how much of the lattice was expanded versus pruned and by which
// rule, how often the engine's count-only and lazy-scatter shortcuts
// fired, how many column filters step-time resumption ran and how wide
// the fan-out ran. Unlike Stats — whose NodesExamined/FullSearches
// are part of the byte-identity contract across index conditions and
// worker counts — SearchStats records engine internals and lives in a
// separate Result field, excluded from every equivalence comparison.
//
// Accumulation is contention-free: every fan-out worker counts into its
// sink's local SearchStats (one plain increment behind a nil check, no
// atomics), merged into the run's totals at the existing deterministic
// sink-merge points. All counter sums are order-independent, so totals are
// identical for every worker count.
type SearchStats struct {
	// Strategy names the match-set engine: always "index", the rank-space
	// engine. Audit documents persisted by older releases may also carry
	// "lists" or "bitmap".
	Strategy string
	// Workers is the fan-out width the run was clamped to.
	Workers int
	// NodesExpanded counts nodes whose children were generated (subtree
	// descents), including step-time resumptions of frontier nodes.
	NodesExpanded int64
	// PrunedSize counts nodes dropped by the size threshold τs.
	PrunedSize int64
	// PrunedBound counts subtree descents stopped by the bound test:
	// biased frontier nodes of the lower-bound searches, non-exceeding
	// substantial nodes of the upper-bound searches.
	PrunedBound int64
	// PrunedDominated counts dominated verdicts returned by the
	// domination filter (per normalization pass, so a node re-checked at
	// several k values counts each time).
	PrunedDominated int64
	// PostingIntersections counts the column filters on the tree paths
	// from the root posting lists to the nodes step-time resumption
	// expands: a resumed node binding b attributes adds b-1, whether or
	// not the node before it in the walk already ran those filters.
	PostingIntersections int64
	// CountOnlyPasses counts child-statistics computations served by
	// count-only tallies over the parent's rank list without
	// materializing any child list.
	CountOnlyPasses int64
	// LazyScatters counts the child splits that materialized at least
	// one child: the count-only passes after which the search entered a
	// child and filtered its rank list from the parent's.
	LazyScatters int64
	// BitmapPasses and SlicePasses split PostingIntersections by
	// representation. Searches filter every bound attribute on a rank
	// column, so SlicePasses equals PostingIntersections and
	// BitmapPasses stays 0; both remain for the served stats format,
	// where audit documents persisted by older releases carry word-wise
	// bitmap AND passes in BitmapPasses.
	BitmapPasses int64
	SlicePasses  int64
	// FrontierByLevel[l] counts frontier admissions of patterns binding l
	// attributes: biased-pattern discoveries on the lower-bound searches,
	// candidate admissions on the upper-bound ones. Index 0 is unused
	// (the empty pattern is never a frontier member).
	FrontierByLevel []int64
}

// The increment helpers are nil-safe: a disabled run (Input.DisableStats)
// simply never allocates the struct, and every instrumentation site costs
// one predictable branch.

func (s *SearchStats) expanded() {
	if s != nil {
		s.NodesExpanded++
	}
}

func (s *SearchStats) prunedSize() {
	if s != nil {
		s.PrunedSize++
	}
}

func (s *SearchStats) prunedBound() {
	if s != nil {
		s.PrunedBound++
	}
}

func (s *SearchStats) addDominated(n int64) {
	if s != nil {
		s.PrunedDominated += n
	}
}

// pathFilters records the n column filters on one resumed node's tree
// path.
func (s *SearchStats) pathFilters(n int) {
	if s != nil && n > 0 {
		s.PostingIntersections += int64(n)
		s.SlicePasses += int64(n)
	}
}

func (s *SearchStats) countOnlyPass() {
	if s != nil {
		s.CountOnlyPasses++
	}
}

func (s *SearchStats) lazyScatter() {
	if s != nil {
		s.LazyScatters++
	}
}

// frontier records a frontier admission at the pattern's lattice level.
// The NumAttrs scan runs only when stats are enabled.
func (s *SearchStats) frontier(p pattern.Pattern) {
	if s != nil {
		s.frontierAt(p.NumAttrs())
	}
}

// frontierAt records a frontier admission at lattice level lvl.
func (s *SearchStats) frontierAt(lvl int) {
	if s == nil {
		return
	}
	for len(s.FrontierByLevel) <= lvl {
		s.FrontierByLevel = append(s.FrontierByLevel, 0)
	}
	s.FrontierByLevel[lvl]++
}

// merge folds a per-worker accumulator into the run totals. Nil receivers
// and nil arguments are no-ops, mirroring the increment helpers.
func (s *SearchStats) merge(o *SearchStats) {
	if s == nil || o == nil {
		return
	}
	s.NodesExpanded += o.NodesExpanded
	s.PrunedSize += o.PrunedSize
	s.PrunedBound += o.PrunedBound
	s.PrunedDominated += o.PrunedDominated
	s.PostingIntersections += o.PostingIntersections
	s.CountOnlyPasses += o.CountOnlyPasses
	s.LazyScatters += o.LazyScatters
	s.BitmapPasses += o.BitmapPasses
	s.SlicePasses += o.SlicePasses
	for len(s.FrontierByLevel) < len(o.FrontierByLevel) {
		s.FrontierByLevel = append(s.FrontierByLevel, 0)
	}
	for i, v := range o.FrontierByLevel {
		s.FrontierByLevel[i] += v
	}
}

// Clone returns a deep copy, so serialization layers can snapshot the
// stats without aliasing the run's slice.
func (s *SearchStats) Clone() *SearchStats {
	if s == nil {
		return nil
	}
	out := *s
	if s.FrontierByLevel != nil {
		out.FrontierByLevel = append([]int64(nil), s.FrontierByLevel...)
	}
	return &out
}
