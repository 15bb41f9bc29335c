package core_test

import (
	"context"
	"fmt"
	"testing"

	"rankfair/internal/core"
	"rankfair/internal/count"
	"rankfair/internal/synth"
)

// BenchmarkIndexedSearch is the rank-space search series: the same
// GLOBALBOUNDS/PROPBOUNDS workloads over synthetic german (1000 rows, 8
// attributes), at 1/2/4/8 workers, from two starting conditions:
//
//   - index-cold: the search builds its posting-list index itself (a
//     fresh Input nobody indexed before).
//   - index-warm: a pre-built index (the cached-Analyst serving case) —
//     root nodes alias posting lists, so the search starts with zero
//     setup scans.
//
// The light workload (high threshold, narrow k range) isolates setup
// cost; the sweep workloads measure the lattice walk itself. The
// prop-staircase series runs the Section VI defaults on synthetic
// students (395 rows): ~2k flips per k on a ~20k-node biased frontier
// whose Res holds a few hundred patterns, the regime of the per-k
// domination settle, whose cost follows the flips and Res rather than
// the frontier. The prop-compas and exposure-compas series run the same
// defaults on synthetic COMPAS (6889 rows), the two heaviest classes of
// the rankbench search workload, whose steps resume thousands of
// multi-attribute frontier nodes and rebuild their match sets by column
// filters along the tree paths. The global-upper series runs the incremental upper-bound
// search on the same COMPAS input (τs 50, k 10–49, constant U 5), where
// groups keep crossing the bound as k grows and resume the search below
// them. The prop-upper series runs one ITERTD row, the per-k walk with
// the most-specific rule, on the index-warm students at τs 50 over k
// 10–14. Both conditions return byte-identical results
// (TestQuickMatchArmsAgree), so only wall clock and allocations differ.
func BenchmarkIndexedSearch(b *testing.B) {
	ctx := context.Background()
	german, err := synth.GermanCredit(1000, 3).InputAttrs(8)
	if err != nil {
		b.Fatal(err)
	}
	ix := count.Build(german.Rows, german.Space, german.Ranking)
	students, err := synth.Students(395, 1).Input()
	if err != nil {
		b.Fatal(err)
	}
	studentsIx := count.Build(students.Rows, students.Space, students.Ranking)
	compas, err := synth.COMPAS(6889, 1).Input()
	if err != nil {
		b.Fatal(err)
	}
	compas.Index = count.Build(compas.Rows, compas.Space, compas.Ranking)
	staircase := core.Spec{Measure: core.MeasureProp, MinSize: 50, KMin: 10, KMax: 49, Alpha: 0.8}
	gp := core.Spec{Measure: core.MeasureGlobal, MinSize: 10, KMin: 10, KMax: 49, Lower: core.StaircaseBounds(10, 49, 10, 10, 10)}
	pp := core.Spec{Measure: core.MeasureProp, MinSize: 10, KMin: 10, KMax: 49, Alpha: 0.8}
	lightParams := core.Spec{Measure: core.MeasureProp, MinSize: 200, KMin: 10, KMax: 12, Alpha: 0.8}
	engines := []struct {
		name string
		ix   *count.Index
	}{
		{"index-cold", nil},
		{"index-warm", ix},
	}
	for _, eng := range engines {
		in := *german
		in.Index = eng.ix
		st := *students
		if eng.ix != nil {
			st.Index = studentsIx
		}
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("global/%s/workers=%d", eng.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Search(ctx, &in, workers(gp, w)); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("prop/%s/workers=%d", eng.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Search(ctx, &in, workers(pp, w)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("light-prop/%s", eng.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Search(ctx, &in, lightParams); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The snapshot-heavy workload: a wide k range at τs=10 settles the
		// domination frontier at ~190 snapshots, so this series tracks the
		// per-k settle alongside the tree walk.
		b.Run(fmt.Sprintf("prop-wide/%s", eng.name), func(b *testing.B) {
			wide := core.Spec{Measure: core.MeasureProp, MinSize: 10, KMin: 10, KMax: 200, Alpha: 0.8}
			for i := 0; i < b.N; i++ {
				if _, err := core.Search(ctx, &in, wide); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("prop-staircase/%s", eng.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Search(ctx, &st, staircase); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("prop-compas/index-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Search(ctx, compas, staircase); err != nil {
				b.Fatal(err)
			}
		}
	})
	exposure := staircase
	exposure.Measure = core.MeasureExposure
	b.Run("exposure-compas/index-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Search(ctx, compas, exposure); err != nil {
				b.Fatal(err)
			}
		}
	})
	propUpper := core.Spec{Measure: core.MeasurePropUpper, MinSize: 50, KMin: 10, KMax: 14, Beta: 1.25}
	st := *students
	st.Index = studentsIx
	b.Run("prop-upper/index-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Search(ctx, &st, propUpper); err != nil {
				b.Fatal(err)
			}
		}
	})
	upper := core.Spec{Measure: core.MeasureGlobalUpper, MinSize: 50, KMin: 10, KMax: 49, Upper: core.ConstantBounds(10, 49, 5)}
	b.Run("global-upper/index-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Search(ctx, compas, upper); err != nil {
				b.Fatal(err)
			}
		}
	})
}
