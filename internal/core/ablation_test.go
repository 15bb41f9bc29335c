package core

// Ablation benchmarks for two implementation choices of the lattice
// search (README, "Rank-space lattice search"):
//
//  1. match-list partitioning — Algorithm 1 computes children sizes by
//     splitting the parent's match list instead of rescanning the
//     dataset per pattern (scanTopDownSearch below is the textbook
//     re-scanning variant);
//  2. incremental search — GLOBALBOUNDS/PROPBOUNDS vs re-running Algorithm
//     1 per k (measured against IterTD*, which the figure benchmarks at the
//     repository root also cover).
//
// The scan variant doubles as an extra correctness oracle for the
// optimized traversal.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rankfair/internal/pattern"
)

// scanTopDownSearch is Algorithm 1 with per-pattern dataset scans: the
// straightforward implementation whose cost the match-list partitioning
// avoids. Its Res is the merged traversal's under the most general rule,
// and its DRes the candidates that rule counts as dominated.
func scanTopDownSearch(in *Input, minSize, k int, b *bound, stats *Stats) (res, dres []pattern.Pattern) {
	stats.FullSearches++
	n := in.Space.NumAttrs()
	queue := pattern.Empty(n).Children(in.Space)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		stats.NodesExamined++
		sD := p.Count(in.Rows)
		if sD < minSize {
			continue
		}
		cnt := p.CountTopK(in.Rows, in.Ranking, k)
		if b.stops(sD, float64(cnt), k) {
			if hasProperSubset(res, p) {
				dres = append(dres, p)
			} else {
				res = append(res, p)
			}
			continue
		}
		queue = append(queue, p.Children(in.Space)...)
	}
	return res, dres
}

// hasProperSubset reports whether any member of set is a proper subset of
// p — the unfiltered scan, the oracle for subsetFilter.
func hasProperSubset(set []pattern.Pattern, p pattern.Pattern) bool {
	for _, q := range set {
		if q.ProperSubsetOf(p) {
			return true
		}
	}
	return false
}

// partitionedSearch runs the merged per-k traversal at k with the most
// general rule of the lower bound b, as the ITERTD baselines do, and
// returns its groups (Res).
func partitionedSearch(in *Input, k int, b *bound, stats *Stats, ss *SearchStats) []pattern.Pattern {
	return topDown(&canceler{}, newEngine(in), b, reportGeneral, k, stats, ss)
}

// TestScanSearchMatchesPartitionedSearch cross-checks the two Algorithm 1
// implementations on random inputs, under the global and the proportional
// lower bound.
func TestScanSearchMatchesPartitionedSearch(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAttrs := 2 + rng.Intn(3)
		cards := make([]int, nAttrs)
		names := make([]string, nAttrs)
		for i := range cards {
			cards[i] = 2 + rng.Intn(2)
			names[i] = "A"
		}
		nRows := 20 + rng.Intn(40)
		rows := make([][]int32, nRows)
		for i := range rows {
			r := make([]int32, nAttrs)
			for j := range r {
				r[j] = int32(rng.Intn(cards[j]))
			}
			rows[i] = r
		}
		in := &Input{Rows: rows, Space: &pattern.Space{Names: names, Cards: cards}, Ranking: rng.Perm(nRows)}
		k := 1 + rng.Intn(nRows)
		minSize := 1 + rng.Intn(4)
		l := 1 + rng.Intn(3)
		spec := &Spec{Measure: MeasureGlobal, KMin: k, KMax: k, Lower: []int{l}, MinSize: minSize}
		if rng.Intn(2) == 1 {
			spec.Measure, spec.Lower, spec.Alpha = MeasureProp, nil, 0.3+rng.Float64()
		}
		b := newBound(in, spec)
		var s1, s2 Stats
		var ss SearchStats
		res1 := partitionedSearch(in, k, &b, &s1, &ss)
		res2, dres2 := scanTopDownSearch(in, minSize, k, &b, &s2)
		return samePatternSet(res1, res2) && ss.PrunedDominated == int64(len(dres2)) &&
			s1.NodesExamined == s2.NodesExamined
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func samePatternSet(a, b []pattern.Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, p := range a {
		seen[p.Key()]++
	}
	for _, p := range b {
		seen[p.Key()]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

// ablationInput builds a 1000×8 categorical dataset with mildly correlated
// attributes and a score-driven ranking, shaped like the German Credit
// workload (internal/synth cannot be imported here without a test cycle).
func ablationInput(b *testing.B) *Input {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	const nRows, nAttrs = 1000, 8
	cards := []int{4, 4, 3, 4, 5, 3, 4, 2}
	names := make([]string, nAttrs)
	for i := range names {
		names[i] = "A"
	}
	rows := make([][]int32, nRows)
	scores := make([]float64, nRows)
	for i := range rows {
		quality := rng.NormFloat64()
		r := make([]int32, nAttrs)
		for j := range r {
			v := int(float64(cards[j])*(0.5+0.18*quality) + rng.Float64()*float64(cards[j])*0.6)
			if v < 0 {
				v = 0
			}
			if v >= cards[j] {
				v = cards[j] - 1
			}
			r[j] = int32(v)
		}
		rows[i] = r
		scores[i] = quality + 0.2*rng.NormFloat64()
	}
	perm := make([]int, nRows)
	for i := range perm {
		perm[i] = i
	}
	for i := 1; i < nRows; i++ {
		for j := i; j > 0 && scores[perm[j]] > scores[perm[j-1]]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return &Input{Rows: rows, Space: &pattern.Space{Names: names, Cards: cards}, Ranking: perm}
}

// BenchmarkAblationCounting compares the two Algorithm 1 implementations:
// match-list partitioning (used everywhere) vs per-pattern dataset scans.
func BenchmarkAblationCounting(b *testing.B) {
	in := ablationInput(b)
	lb := newBound(in, &Spec{Measure: MeasureGlobal, KMin: 40, KMax: 40, Lower: []int{20}, MinSize: 20})
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s Stats
			partitionedSearch(in, 40, &lb, &s, nil)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s Stats
			scanTopDownSearch(in, 20, 40, &lb, &s)
		}
	})
}

// BenchmarkAblationIncremental isolates the paper's core optimization: the
// per-k incremental update of GLOBALBOUNDS vs a fresh search per k.
func BenchmarkAblationIncremental(b *testing.B) {
	in := ablationInput(b)
	params := Spec{Measure: MeasureGlobal, MinSize: 20, KMin: 10, KMax: 200, Lower: ConstantBounds(10, 200, 8)}
	b.Run("rebuild-per-k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Search(bg, in, baseline(params)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Search(bg, in, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKtildeScheduling isolates PROPBOUNDS' k̃ bucket queue
// against the per-k rebuild.
func BenchmarkAblationKtildeScheduling(b *testing.B) {
	in := ablationInput(b)
	params := Spec{Measure: MeasureProp, MinSize: 20, KMin: 10, KMax: 200, Alpha: 0.8}
	b.Run("rebuild-per-k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Search(bg, in, baseline(params)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Search(bg, in, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPatternOps measures the hot pattern primitives.
func BenchmarkPatternOps(b *testing.B) {
	in := ablationInput(b)
	p := pattern.Empty(in.Space.NumAttrs()).With(0, 1).With(3, 0)
	b.Run("Matches", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Matches(in.Rows[i%len(in.Rows)])
		}
	})
	b.Run("Count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Count(in.Rows)
		}
	})
	b.Run("Children", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Children(in.Space)
		}
	})
}
