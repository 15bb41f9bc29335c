// Package rankfair detects groups with biased representation in the top-k
// results of a ranking algorithm, without pre-defined protected groups,
// implementing Li, Moskovitch & Jagadish, "Detection of Groups with Biased
// Representation in Ranking" (ICDE 2023).
//
// The entry point is an Analyst bound to a dataset and a black-box ranker:
//
//	table, _ := rankfair.ReadCSV(f, rankfair.CSVOptions{})
//	a, err := rankfair.New(table, &rankfair.ByColumns{
//		Keys: []rankfair.ColumnKey{{Column: "score", Descending: true}},
//	})
//	report, err := a.Detect(rankfair.AuditParams{
//		Measure: rankfair.MeasureProp, MinSize: 50, KMin: 10, KMax: 49, Alpha: 0.8,
//	})
//	for _, g := range report.At(20) {
//		fmt.Println(report.Format(g)) // e.g. {sex=F, address=R}
//	}
//
// Detected groups can be explained with aggregated Shapley values over a
// regression surrogate of the ranker (Analyst.Explain), and compared with
// the divergence-based method of Pastor et al. (Analyst.Divergence).
package rankfair

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"rankfair/internal/core"
	"rankfair/internal/count"
	"rankfair/internal/dataset"
	"rankfair/internal/divergence"
	"rankfair/internal/explain"
	"rankfair/internal/pattern"
	"rankfair/internal/rank"
)

// Re-exported substrate types: the facade exposes the full vocabulary of
// the library without requiring internal imports.
type (
	// Dataset is an in-memory relation of categorical and numeric columns.
	Dataset = dataset.Table
	// CSVOptions controls CSV decoding.
	CSVOptions = dataset.CSVOptions
	// Pattern is a value assignment to a subset of attributes, describing
	// a group (Definition 2.2 of the paper).
	Pattern = pattern.Pattern
	// Space describes the categorical attribute universe.
	Space = pattern.Space
	// Ranker is the black-box ranking algorithm interface.
	Ranker = rank.Ranker
	// IncrementalRanker is a Ranker that can extend an existing ranking
	// with appended tuples exactly (ByColumns implements it); the
	// streaming append path takes its fast path only for rankers
	// satisfying this interface.
	IncrementalRanker = rank.IncrementalRanker
	// ByColumns ranks lexicographically by numeric sort keys.
	ByColumns = rank.ByColumns
	// ColumnKey is one sort key of ByColumns.
	ColumnKey = rank.ColumnKey
	// Linear ranks by a weighted sum of min-max normalized attributes.
	Linear = rank.Linear
	// Fixed wraps an externally produced ranking permutation.
	Fixed = rank.Fixed

	// Input is the algorithm-level dataset view (rows, space, ranking).
	Input = core.Input
	// Result holds per-k result sets and work statistics.
	Result = core.Result
	// CanceledError is the partial-work error a detection run returns when
	// its context is canceled mid-lattice; it unwraps to the context error.
	CanceledError = core.CanceledError

	// ExplainOptions tunes the Shapley explanation pipeline (Section V).
	ExplainOptions = explain.Options
	// Explanation is a Shapley-based group explanation.
	Explanation = explain.Explanation
	// DivergenceParams configures the Pastor et al. comparator.
	DivergenceParams = divergence.Params
	// DivergenceResult is the divergence-ranked subgroup report.
	DivergenceResult = divergence.Result
)

// Model kinds for ExplainOptions.
const (
	// RidgeModel uses one-hot ridge regression as the ranking surrogate.
	RidgeModel = explain.RidgeModel
	// TreeModel uses a CART regression tree as the ranking surrogate.
	TreeModel = explain.TreeModel
)

// Unbound marks an unconstrained attribute inside a Pattern.
const Unbound = pattern.Unbound

// NewDataset returns an empty dataset; add columns with AddCategorical,
// AddNumeric, and Bucketize.
func NewDataset() *Dataset { return dataset.New() }

// ReadCSV decodes a header-first CSV stream into a Dataset.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	return dataset.ReadCSV(r, opts)
}

// WriteCSV encodes a Dataset as CSV.
func WriteCSV(w io.Writer, t *Dataset) error { return dataset.WriteCSV(w, t) }

// StaircaseBounds builds the paper's default non-decreasing lower-bound
// sequence for AuditParams.Lower.
func StaircaseBounds(kMin, kMax, base, step, width int) []int {
	return core.StaircaseBounds(kMin, kMax, base, step, width)
}

// ConstantBounds builds a constant bound sequence.
func ConstantBounds(kMin, kMax, l int) []int { return core.ConstantBounds(kMin, kMax, l) }

// Analyst binds a dataset to a ranker and exposes the paper's detection,
// explanation and comparison pipelines over it.
type Analyst struct {
	table *Dataset
	in    *core.Input
	dicts [][]string

	// idx is the shared rank-indexed counting engine (internal/count),
	// built lazily on first use and reused by every report, repair,
	// explanation and divergence query against this analyst. It is
	// immutable after construction, so a cached Analyst can serve
	// concurrent audits.
	idxOnce sync.Once
	idx     *count.Index
}

// index returns the analyst's counting index, building it on first use and
// threading it into the algorithm-level input: every detection run after
// this point starts its lattice search over the posting lists with zero
// setup scans. Callers reach the input only through methods that call
// index() first, so the write is safely published by the Once.
func (a *Analyst) index() *count.Index {
	a.idxOnce.Do(func() {
		a.idx = count.Build(a.in.Rows, a.in.Space, a.in.Ranking)
		a.in.Index = a.idx
	})
	return a.idx
}

// Warm pre-builds the analyst's rank-indexed counting engine so the first
// detection, report or explanation against this analyst starts warm. The
// rankfaird service calls it when admitting an analyst into its cache;
// library callers that build an Analyst ahead of serving traffic can do
// the same.
func (a *Analyst) Warm() { a.index() }

// IndexFootprint returns the estimated heap footprint in bytes of the
// analyst's counting index, building the index on first use. The rankfaird
// service surfaces the sum over cached analysts as a gauge.
func (a *Analyst) IndexFootprint() int64 { return a.index().SizeBytes() }

// SetSearchStats toggles collection of per-run core.SearchStats on this
// analyst's detection runs (enabled by default). Disabling removes the
// Report.Search counters and the audit JSON "stats" key; Groups and the
// comparable Stats are byte-identical either way. Call before sharing the
// analyst across goroutines — the flag is read at the start of each run.
func (a *Analyst) SetSearchStats(enabled bool) { a.in.DisableStats = !enabled }

// Count returns s_D(p), the number of tuples matching p, answered from the
// shared posting-list index (O(bound attrs · shortest list) instead of a
// full dataset scan).
func (a *Analyst) Count(p Pattern) int { return a.index().Count(p) }

// CountTopK returns s_{R_k(D)}(p), the number of tuples among the top k of
// the ranking matching p: a binary search on rank positions for
// single-attribute groups, a bounded probe for multi-attribute ones.
func (a *Analyst) CountTopK(p Pattern, k int) int { return a.index().CountTopK(p, k) }

// New builds an Analyst: it materializes the categorical view of the table
// and invokes the black-box ranker once.
func New(table *Dataset, ranker Ranker) (*Analyst, error) {
	if table == nil {
		return nil, errors.New("rankfair: nil dataset")
	}
	if ranker == nil {
		return nil, errors.New("rankfair: nil ranker")
	}
	rows, names, cards := table.CatMatrix()
	if len(names) == 0 {
		return nil, errors.New("rankfair: dataset has no categorical attributes (bucketize numeric columns first)")
	}
	ranking, err := ranker.Rank(table)
	if err != nil {
		return nil, fmt.Errorf("rankfair: ranking: %w", err)
	}
	in := &core.Input{Rows: rows, Space: &pattern.Space{Names: names, Cards: cards}, Ranking: ranking}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("rankfair: %w", err)
	}
	return &Analyst{table: table, in: in, dicts: table.CatDicts()}, nil
}

// NewFromInput builds an Analyst directly from an algorithm-level input,
// for callers that produce encoded rows and rankings themselves. dicts may
// be nil (patterns then render with raw codes).
func NewFromInput(in *Input, dicts [][]string) (*Analyst, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("rankfair: %w", err)
	}
	return &Analyst{in: in, dicts: dicts}, nil
}

// Input exposes the algorithm-level view (rows, space, ranking).
func (a *Analyst) Input() *Input { return a.in }

// Append derives an analyst for an extended dataset from this one without
// re-ranking or re-indexing: the streaming ingestion fast path. table must
// extend the analyst's dataset — its first NumRows() rows equal to the
// parent's rows, in order, with unchanged categorical schema (the contract
// Dataset.AppendRows produces). When the ranker supports incremental
// extension (rank.IncrementalRanker — ByColumns does), the appended rows'
// scores are merged into the maintained ranking, the warm posting-list
// index is extended copy-on-write (count.Index.Extend), and the shared row
// prefix is aliased rather than re-encoded, so the returned analyst is warm
// for O(n + b·attrs) work plus a prefix-equality check. The receiver stays
// fully usable — audits running against it are unaffected (snapshot
// isolation). Rankers without incremental support, schema mismatches and
// tables that do not extend this one fall back to New(table, ranker), which
// is always correct, just cold; either way the result is indistinguishable
// from an analyst built fresh over table (the append differential suite
// holds both paths to byte-identical reports).
func (a *Analyst) Append(table *Dataset, ranker Ranker) (*Analyst, error) {
	if table == nil {
		return nil, errors.New("rankfair: nil dataset")
	}
	if ranker == nil {
		return nil, errors.New("rankfair: nil ranker")
	}
	inc, ok := ranker.(rank.IncrementalRanker)
	if !ok || a.table == nil || !a.extendsTable(table) {
		return New(table, ranker)
	}
	newRanking, err := inc.RankAppend(table, a.in.Ranking)
	if err != nil {
		return New(table, ranker)
	}
	n := a.table.NumRows()
	tail := table.CatRowsFrom(n)
	rows := make([][]int32, 0, n+len(tail))
	rows = append(rows, a.in.Rows...)
	rows = append(rows, tail...)
	idx := a.index().Extend(rows, a.in.Space, newRanking)
	in := &core.Input{
		Rows:         rows,
		Space:        a.in.Space,
		Ranking:      newRanking,
		Index:        idx,
		DisableStats: a.in.DisableStats,
	}
	if err := in.ValidateAppend(a.in); err != nil {
		return nil, fmt.Errorf("rankfair: append: %w", err)
	}
	na := &Analyst{table: table, in: in, dicts: table.CatDicts()}
	na.idxOnce.Do(func() { na.idx = idx })
	return na, nil
}

// extendsTable reports whether table extends the analyst's dataset: same
// columns in the same order with identical kinds, identical categorical
// dictionaries and code prefixes, and identical numeric prefixes (the
// ranker's sort keys live there — a re-scored prefix would make the
// merge-insert binary-search over a ranking the new scores no longer
// sort). The prefix comparison is one sequential O(n·cols) pass with no
// allocation — cheap insurance against a caller handing Append an
// unrelated table, which would otherwise silently produce a wrong ranking
// or search old codes under new labels. NaN prefix values fail the float
// equality and force the (always correct) rebuild fallback by design.
func (a *Analyst) extendsTable(table *Dataset) bool {
	if table.NumRows() < a.table.NumRows() || table.NumCols() != a.table.NumCols() {
		return false
	}
	n := a.table.NumRows()
	cat := 0
	for j, c := range table.Columns() {
		oc := a.table.Column(j)
		if c.Name != oc.Name || c.Kind != oc.Kind {
			return false
		}
		if c.Kind != dataset.Categorical {
			if c.Kind == dataset.Numeric {
				for i := 0; i < n; i++ {
					if c.Floats[i] != oc.Floats[i] {
						return false
					}
				}
			}
			continue
		}
		if c.Cardinality() != oc.Cardinality() {
			return false
		}
		for v := 0; v < oc.Cardinality(); v++ {
			if c.Dict[v] != oc.Dict[v] {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if c.Codes[i] != a.in.Rows[i][cat] {
				return false
			}
		}
		cat++
	}
	return true
}

// Space exposes the categorical attribute universe.
func (a *Analyst) Space() *Space { return a.in.Space }

// EmptyPattern returns the all-unbound pattern over the analyst's space;
// bind attributes with Pattern.With or Analyst.Bind.
func (a *Analyst) EmptyPattern() Pattern { return pattern.Empty(a.in.Space.NumAttrs()) }

// Bind returns a copy of p with the named attribute bound to the value
// with the given label.
func (a *Analyst) Bind(p Pattern, attr, label string) (Pattern, error) {
	for i, n := range a.in.Space.Names {
		if n != attr {
			continue
		}
		if a.dicts != nil {
			for c, l := range a.dicts[i] {
				if l == label {
					return p.With(i, int32(c)), nil
				}
			}
			return nil, fmt.Errorf("rankfair: attribute %q has no value %q", attr, label)
		}
		return nil, fmt.Errorf("rankfair: no value dictionary for attribute %q", attr)
	}
	return nil, fmt.Errorf("rankfair: no attribute %q", attr)
}

// Format renders a pattern with attribute names and value labels.
func (a *Analyst) Format(p Pattern) string { return p.Format(a.in.Space, a.dicts) }

// Report pairs a detection result with its analyst for rendering and with
// the parameters it was detected with for bias-magnitude computations (see
// InfoAt).
type Report struct {
	*Result
	analyst *Analyst
	spec    AuditParams

	// Materialization state (see materialized / exposurePrefixLocked):
	// per-level (key, count-vector) slices aligned with Result.Groups,
	// and the cumulative position-exposure table. Built lazily, guarded
	// by matMu.
	matMu      sync.Mutex
	levels     [][]levelEntry
	expWeights []float64
	expPrefix  []float64
}

// Format renders a group with attribute names and value labels.
func (r *Report) Format(p Pattern) string { return r.analyst.Format(p) }

// Detect runs the detection params describes: for every k in
// [KMin, KMax], the groups whose top-k representation violates the
// measure's bound. params.Baseline selects the ITERTD baseline where the
// measure has an incremental algorithm (global, prop, global-upper,
// exposure); both return the same groups.
func (a *Analyst) Detect(params AuditParams) (*Report, error) {
	return a.DetectCtx(context.Background(), params)
}

// DetectCtx is Detect with cross-cutting execution controls. Canceling ctx
// stops the lattice search mid-traversal: the run discards its partial
// work and returns an error unwrapping to ctx.Err() (core.CanceledError),
// within a bounded number of node expansions of the cancellation. A
// params.Workers above 1 fans the search out over that many goroutines;
// results are byte-identical to the serial run for every worker count
// (params.Workers of 0 runs serially here — the rankfaird service
// substitutes its own default before calling).
func (a *Analyst) DetectCtx(ctx context.Context, params AuditParams) (*Report, error) {
	// The search runs in rank space over the analyst's counting index, so
	// a warm Analyst — the service layer caches them per (dataset hash,
	// ranker key) — starts it with zero setup scans.
	a.index()
	res, err := core.Search(ctx, a.in, params)
	if err != nil {
		return nil, err
	}
	return &Report{Result: res, analyst: a, spec: params}, nil
}

// Explain runs the Section V pipeline on a detected group: it trains a
// regression surrogate of the ranker, aggregates Shapley values over the
// group's tuples, and compares the top attribute's value distribution
// between the top-k and the group. Group membership comes from the shared
// counting index; results are identical to the scanning pipeline.
func (a *Analyst) Explain(p Pattern, k int, opts ExplainOptions) (*Explanation, error) {
	return explain.ExplainIndexed(a.in, a.index(), a.dicts, p, k, opts)
}

// Divergence runs the comparator of Pastor et al. [27] (Section VI-D):
// every subgroup above the support threshold, ranked by the divergence of
// its binary top-k outcome. The frequent-subgroup search runs in rank
// space over the shared counting index — posting lists seed the root match
// lists and top-k hit counting is a binary search — returning the same
// report as the scanning implementation.
func (a *Analyst) Divergence(params DivergenceParams) (*DivergenceResult, error) {
	return divergence.FindIndexed(a.in, a.index(), params)
}
