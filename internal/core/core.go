// Package core implements the paper's primary contribution: detection of
// groups (patterns) with biased representation in the top-k ranked items,
// for every k in a range, without pre-defining protected groups.
//
// Search is the one entry point. A Spec names the measure and, through
// Baseline, picks between the ITERTD baseline and the measure's
// incremental search:
//
//   - ITERTD (Section IV-A): the baseline that re-runs the top-down search
//     of Algorithm 1 for every k. One traversal serves every measure: a
//     candidate is a node on the reported side of the measure's bound, and
//     the row's report semantics (most general or most specific) picks the
//     output rule that reduces the candidates to the groups (variants.go).
//   - GLOBALBOUNDS (Algorithm 2, Section IV-B) and PROPBOUNDS (Algorithm
//     3, Section IV-C): the optimized incremental algorithms for global
//     (Problem 3.1) and proportional (Problem 3.2) representation, run by
//     one engine over a bound type that also covers the exposure measure
//     and the global upper bound (lower.go). The engine hands the nodes on
//     the reported side of the bound to an output rule: the domination
//     frontier (frontier.go) reports the most general biased groups, and
//     the upper bound's candidate set (variants.go) the most specific
//     exceeding ones.
//
// Besides the paper's two lower-bound measures, Spec covers the upper-bound
// variants of Section III (most-specific substantial patterns exceeding an
// upper bound), its alternate report semantics, and exposure. The
// variants without an incremental search (prop-upper, lower-specific and
// upper-general) run only ITERTD.
//
// All algorithms treat the ranking as a black box: they consume only a
// permutation of row indices (best first) and the categorical encoding of
// the dataset.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"rankfair/internal/count"
	"rankfair/internal/pattern"
)

// Pattern is re-exported for convenience so callers of the detection
// algorithms do not need to import internal/pattern separately.
type Pattern = pattern.Pattern

// Input bundles the dataset view consumed by every detection algorithm.
type Input struct {
	// Rows is the dictionary-encoded categorical matrix of the dataset
	// (one slice per tuple, one entry per attribute).
	Rows [][]int32
	// Space describes the attributes of Rows.
	Space *pattern.Space
	// Ranking is a permutation of row indices, best first, produced by the
	// black-box ranking algorithm R.
	Ranking []int
	// Index is an optional pre-built rank index over (Rows, Space, Ranking).
	// When attached — the Analyst threads its lazily built counting engine
	// here — the lattice search starts with zero setup scans; when nil,
	// every search builds its own index first. The caller is responsible
	// for the index actually describing this input (only the row count is
	// validated).
	Index *count.Index
	// DisableStats turns off the per-run SearchStats accounting: searches
	// leave Result.Search nil and skip every counter increment. Groups and
	// Stats are byte-identical either way (TestStatsInvariance guards
	// this); the knob exists for overhead measurement and for callers that
	// want the last fraction of a percent back. Set it before sharing the
	// input across goroutines, like every other Input field.
	DisableStats bool

	// validated memoizes a successful Validate: repeated searches over one
	// input (the Analyst serving path runs many audits against one dataset)
	// skip the O(n·attrs) re-validation, which otherwise dominates light
	// searches. The flag is set before any fan-out — validate an input once
	// before sharing it across goroutines (the Analyst constructor does) —
	// and callers must not mutate a validated input's rows or ranking.
	validated bool
}

// Validate checks structural consistency of the input. A successful
// validation is memoized on the input, so the per-search re-check is one
// flag read.
func (in *Input) Validate() error {
	if in == nil {
		return errors.New("core: nil input")
	}
	// The index consistency check is O(1), so it stays ahead of the memo:
	// an index attached (or swapped) after a successful validation is still
	// caught rather than silently driving the rank-space search.
	if in.Index != nil && in.Index.NumRows() != len(in.Rows) {
		return fmt.Errorf("core: attached index covers %d rows, input has %d", in.Index.NumRows(), len(in.Rows))
	}
	if in.validated {
		return nil
	}
	if in.Space == nil {
		return errors.New("core: nil space")
	}
	n := in.Space.NumAttrs()
	if n == 0 {
		return errors.New("core: space has no attributes")
	}
	if len(in.Space.Names) != n {
		return fmt.Errorf("core: %d attribute names for %d cardinalities", len(in.Space.Names), n)
	}
	for i, c := range in.Space.Cards {
		if c < 1 {
			return fmt.Errorf("core: attribute %d has cardinality %d", i, c)
		}
	}
	if err := in.checkRows(0); err != nil {
		return err
	}
	if err := in.checkRanking(); err != nil {
		return err
	}
	in.validated = true
	return nil
}

// checkRows checks that every row from index from on binds each attribute
// of the space to a value in its domain.
func (in *Input) checkRows(from int) error {
	n := in.Space.NumAttrs()
	for i := from; i < len(in.Rows); i++ {
		if len(in.Rows[i]) != n {
			return fmt.Errorf("core: row %d has %d attributes, want %d", i, len(in.Rows[i]), n)
		}
		for j, v := range in.Rows[i] {
			if v < 0 || int(v) >= in.Space.Cards[j] {
				return fmt.Errorf("core: row %d attribute %d: value %d out of domain [0,%d)", i, j, v, in.Space.Cards[j])
			}
		}
	}
	return nil
}

// checkRanking checks that the ranking is a permutation of the row indices.
func (in *Input) checkRanking() error {
	if len(in.Ranking) != len(in.Rows) {
		return fmt.Errorf("core: ranking has %d entries for %d rows", len(in.Ranking), len(in.Rows))
	}
	seen := make([]bool, len(in.Rows))
	for _, ri := range in.Ranking {
		if ri < 0 || ri >= len(seen) || seen[ri] {
			return fmt.Errorf("core: ranking is not a permutation (index %d)", ri)
		}
		seen[ri] = true
	}
	return nil
}

// ValidateAppend validates in as an append extension of an already
// validated parent input and memoizes the result, in O(n + b·attrs)
// instead of Validate's O(n·attrs): the shared row prefix is checked by
// slice identity (the streaming append path aliases the parent's row
// slices rather than re-encoding them), so only the appended rows' domains
// and the new ranking permutation need examining. It is the validation
// step of the streaming ingestion path; anything it cannot prove cheaply
// it rejects, and the caller falls back to a full Validate via a fresh
// build.
func (in *Input) ValidateAppend(parent *Input) error {
	if in == nil || parent == nil {
		return errors.New("core: nil input")
	}
	if !parent.validated {
		return errors.New("core: append parent is not validated")
	}
	if in.Space == nil || in.Space.NumAttrs() != parent.Space.NumAttrs() {
		return errors.New("core: append changes the attribute space")
	}
	for a, c := range in.Space.Cards {
		if c != parent.Space.Cards[a] || in.Space.Names[a] != parent.Space.Names[a] {
			return fmt.Errorf("core: append changes attribute %d", a)
		}
	}
	n := len(parent.Rows)
	if len(in.Rows) < n {
		return fmt.Errorf("core: append shrinks the dataset (%d rows, parent has %d)", len(in.Rows), n)
	}
	for i := 0; i < n; i++ {
		if len(parent.Rows[i]) == 0 || len(in.Rows[i]) != len(parent.Rows[i]) || &in.Rows[i][0] != &parent.Rows[i][0] {
			return fmt.Errorf("core: append row %d does not alias the parent row", i)
		}
	}
	if err := in.checkRows(n); err != nil {
		return err
	}
	if err := in.checkRanking(); err != nil {
		return err
	}
	if in.Index != nil && in.Index.NumRows() != len(in.Rows) {
		return fmt.Errorf("core: attached index covers %d rows, input has %d", in.Index.NumRows(), len(in.Rows))
	}
	in.validated = true
	return nil
}

// Stats records work accounting used by the experimental study (Section
// VI-B compares the number of patterns examined by the baseline and the
// optimized algorithms).
type Stats struct {
	// NodesExamined counts pattern nodes whose sizes were (re)examined.
	NodesExamined int64
	// FullSearches counts complete top-down searches performed.
	FullSearches int
}

func (s *Stats) add(o Stats) {
	s.NodesExamined += o.NodesExamined
	s.FullSearches += o.FullSearches
}

// Result holds, for each k in [KMin, KMax], the most general patterns with
// biased representation in the top-k (or, for the upper-bound variants, the
// most specific substantial patterns exceeding the bound).
type Result struct {
	KMin, KMax int
	// Groups[k-KMin] is the result set for k, sorted by (number of bound
	// attributes, key) for deterministic output.
	Groups [][]pattern.Pattern
	// Stats accumulates work accounting across the whole run.
	Stats Stats
	// Search carries the run's observability counters (expansion/pruning
	// breakdown, engine shortcuts, fan-out width). Nil when the input sets
	// DisableStats. Unlike Stats it records engine internals, so it is
	// excluded from equivalence comparisons.
	Search *SearchStats
}

// At returns the result set for a specific k. It returns nil when k is
// outside [KMin, KMax].
func (r *Result) At(k int) []pattern.Pattern {
	if k < r.KMin || k > r.KMax {
		return nil
	}
	return r.Groups[k-r.KMin]
}

// TotalGroups returns the summed sizes of all per-k result sets.
func (r *Result) TotalGroups() int {
	total := 0
	for _, g := range r.Groups {
		total += len(g)
	}
	return total
}

// StaircaseBounds builds the paper's default lower-bound sequence: starting
// at base, the bound increases by step every width values of k. With
// kMin=10, kMax=49, base=10, step=10, width=10 it yields L=10 for k in
// [10,20), 20 for [20,30), 30 for [30,40) and 40 for [40,50) (Section VI-A).
func StaircaseBounds(kMin, kMax, base, step, width int) []int {
	if kMax < kMin || width <= 0 {
		return nil
	}
	out := make([]int, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		out[k-kMin] = base + step*((k-kMin)/width)
	}
	return out
}

// ConstantBounds builds a constant lower-bound sequence L_k = l.
func ConstantBounds(kMin, kMax, l int) []int {
	if kMax < kMin {
		return nil
	}
	out := make([]int, kMax-kMin+1)
	for i := range out {
		out[i] = l
	}
	return out
}

// sortScratch holds the pooled buffers of sortPatterns: one shared byte
// arena for every key of a call plus the sort's item table, so a per-k
// baseline sorting its result set allocates nothing in steady state (the
// keys used to be one string allocation per pattern per call, the
// dominant allocator of the ITERTD staircases).
type sortScratch struct {
	buf   []byte
	offs  []int32
	items []sortItem
}

type sortItem struct {
	p     pattern.Pattern
	attrs int32
	key   []byte
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// sortPatterns orders a result set by (number of bound attributes, key) so
// outputs are deterministic across runs and algorithms. Keys are appended
// once per pattern into the pooled arena up front; byte comparison of the
// arena slices orders identically to string comparison of Pattern.Key.
func sortPatterns(ps []pattern.Pattern) {
	if len(ps) < 2 {
		return
	}
	sc := sortScratchPool.Get().(*sortScratch)
	buf, offs := sc.buf[:0], sc.offs[:0]
	offs = append(offs, 0)
	for _, p := range ps {
		buf = p.AppendKey(buf)
		offs = append(offs, int32(len(buf)))
	}
	items := sc.items
	if cap(items) < len(ps) {
		items = make([]sortItem, len(ps))
	} else {
		items = items[:len(ps)]
	}
	// Key slices are carved only after the arena stops growing, so they
	// cannot be invalidated by a reallocation.
	for i, p := range ps {
		items[i] = sortItem{p: p, attrs: int32(p.NumAttrs()), key: buf[offs[i]:offs[i+1]]}
	}
	slices.SortFunc(items, func(a, b sortItem) int {
		if a.attrs != b.attrs {
			return int(a.attrs - b.attrs)
		}
		return bytes.Compare(a.key, b.key)
	})
	for i := range items {
		ps[i] = items[i].p
		items[i] = sortItem{} // drop pattern references before pooling
	}
	sc.buf, sc.offs, sc.items = buf, offs, items[:0]
	sortScratchPool.Put(sc)
}
