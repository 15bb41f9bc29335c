// Package synth generates the datasets of the paper's experimental study.
//
// The paper evaluates on three real datasets (COMPAS, Student Performance,
// German Credit) that are not redistributable here, so this package
// generates synthetic datasets with the same schema, cardinalities, row
// counts and correlation structure, so the detection algorithms see search
// spaces and top-k compositions of the same shape. It also provides the
// paper's running example (Figure 1) and the worst-case construction of
// Theorem 3.3 (Figure 2) verbatim.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"rankfair/internal/core"
	"rankfair/internal/dataset"
	"rankfair/internal/pattern"
	"rankfair/internal/rank"
)

// Bundle pairs a generated table with the ranking algorithm the paper uses
// for it.
type Bundle struct {
	// Name identifies the dataset ("compas", "student", "german", ...).
	Name string
	// Table holds the generated relation: categorical columns form the
	// pattern space; numeric columns feed the ranker.
	Table *dataset.Table
	// Ranker is the black-box ranking algorithm R of the experiments.
	Ranker rank.Ranker
}

// Input materializes the detection-algorithm view of the bundle: the
// categorical matrix, attribute space, and the ranking permutation.
func (b *Bundle) Input() (*core.Input, error) {
	return b.InputAttrs(-1)
}

// InputAttrs is Input restricted to the first m categorical attributes
// (m < 0 means all), as used by the number-of-attributes sweeps of
// Figures 4-5.
func (b *Bundle) InputAttrs(m int) (*core.Input, error) {
	rows, names, cards := b.Table.CatMatrix()
	if m >= 0 {
		if m > len(names) {
			return nil, fmt.Errorf("synth: %d attributes requested, dataset %q has %d", m, b.Name, len(names))
		}
		names = names[:m]
		cards = cards[:m]
		trimmed := make([][]int32, len(rows))
		for i, r := range rows {
			trimmed[i] = r[:m]
		}
		rows = trimmed
	}
	ranking, err := b.Ranker.Rank(b.Table)
	if err != nil {
		return nil, fmt.Errorf("synth: ranking %q: %w", b.Name, err)
	}
	in := &core.Input{
		Rows:    rows,
		Space:   &pattern.Space{Names: names, Cards: cards},
		Ranking: ranking,
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %q: %w", b.Name, err)
	}
	return in, nil
}

// NumCatAttrs returns the number of categorical attributes of the bundle.
func (b *Bundle) NumCatAttrs() int { return len(b.Table.CategoricalIndices()) }

// gen wraps the seeded random source with the distribution helpers the
// generators need.
type gen struct{ r *rand.Rand }

func newGen(seed int64) *gen { return &gen{r: rand.New(rand.NewSource(seed))} }

// normal draws from N(mean, sd).
func (g *gen) normal(mean, sd float64) float64 { return mean + sd*g.r.NormFloat64() }

// uniform draws from [lo, hi).
func (g *gen) uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// choice draws index i with probability weights[i]/sum(weights).
func (g *gen) choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// bern draws true with probability p.
func (g *gen) bern(p float64) bool { return g.r.Float64() < p }

// poissonish draws a small non-negative count with the given mean, clamped
// to max (a cheap Poisson stand-in adequate for count attributes).
func (g *gen) poissonish(mean float64, max int) int {
	v := int(math.Round(math.Abs(g.normal(mean, math.Sqrt(mean+0.5)))))
	if v > max {
		v = max
	}
	return v
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ordinalLabels renders 0..n-1 as strings ("0", "1", ...), the encoding
// used for ordinal categorical attributes.
func ordinalLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}

// mustAddCat panics on AddCategorical failure; generators construct columns
// with statically correct shapes, so a failure is a programming error.
func mustAddCat(t *dataset.Table, name string, values []string) {
	if err := t.AddCategorical(name, values); err != nil {
		panic(err)
	}
}

// mustAddCatCodes panics on AddCategoricalCodes failure.
func mustAddCatCodes(t *dataset.Table, name string, codes []int32, dict []string) {
	if err := t.AddCategoricalCodes(name, codes, dict); err != nil {
		panic(err)
	}
}

// mustAddNum panics on AddNumeric failure.
func mustAddNum(t *dataset.Table, name string, values []float64) {
	if err := t.AddNumeric(name, values); err != nil {
		panic(err)
	}
}
