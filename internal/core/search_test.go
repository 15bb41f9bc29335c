package core_test

import (
	"math/rand"
	"testing"

	"rankfair/internal/core"
	"rankfair/internal/pattern"
)

// specOracle is the brute-force answer to s at k: every substantial
// pattern classified by the measure's bound, reduced to its most general
// members (lower bounds, and the upper-general semantics) or its most
// specific ones (upper bounds, and the lower-specific semantics).
func specOracle(in *core.Input, s core.Spec, k int) []pattern.Pattern {
	n := float64(len(in.Rows))
	ek := 0.0
	for i := 1; i <= k; i++ {
		ek += core.PositionExposure(i)
	}
	var hits []pattern.Pattern
	pattern.EnumerateAll(in.Space, func(p pattern.Pattern) bool {
		sD := p.Count(in.Rows)
		if sD < s.MinSize {
			return true
		}
		cnt := p.CountTopK(in.Rows, in.Ranking, k)
		var hit bool
		switch s.Measure {
		case core.MeasureGlobal, core.MeasureLowerSpecific:
			hit = cnt < s.Lower[k-s.KMin]
		case core.MeasureGlobalUpper, core.MeasureUpperGeneral:
			hit = cnt > s.Upper[k-s.KMin]
		case core.MeasureProp:
			hit = float64(cnt) < s.Alpha*float64(sD)*float64(k)/n
		case core.MeasurePropUpper:
			hit = float64(cnt) > s.Beta*float64(sD)*float64(k)/n
		case core.MeasureExposure:
			hit = core.PatternExposure(in, p, k) < s.Alpha*float64(sD)*ek/n
		}
		if hit {
			hits = append(hits, p)
		}
		return true
	})
	switch s.Measure {
	case core.MeasureGlobalUpper, core.MeasurePropUpper, core.MeasureLowerSpecific:
		return pattern.MostSpecific(hits)
	}
	return pattern.MostGeneral(hits)
}

// TestSearchSpecs drives Search's dispatch table: every (Measure, Baseline)
// pair it accepts, serial and fanned out, on random inputs, against the
// brute-force oracle.
func TestSearchSpecs(t *testing.T) {
	measures := []string{
		core.MeasureGlobal, core.MeasureProp, core.MeasureGlobalUpper, core.MeasurePropUpper,
		core.MeasureExposure, core.MeasureLowerSpecific, core.MeasureUpperGeneral,
	}
	accepted := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		kMin := 2 + rng.Intn(4)
		kMax := min(kMin+rng.Intn(8), len(in.Rows))
		span := kMax - kMin + 1
		// GLOBALBOUNDS needs a non-decreasing L; U may move either way.
		lower := make([]int, span)
		upper := make([]int, span)
		for i := range lower {
			lower[i] = 1 + rng.Intn(2)
			if i > 0 {
				lower[i] += lower[i-1] - 1
			}
			upper[i] = 1 + rng.Intn(5)
		}
		base := core.Spec{
			MinSize: 1 + rng.Intn(4), KMin: kMin, KMax: kMax,
			Alpha: 0.3 + rng.Float64()*0.8, Beta: 1 + rng.Float64()*1.5,
			Lower: lower, Upper: upper,
		}
		for _, m := range measures {
			for _, b := range []bool{false, true} {
				s := base
				s.Measure, s.Baseline = m, b
				if s.Validate() != nil {
					continue
				}
				if seed == 0 {
					accepted++
				}
				for _, w := range []int{1, 3} {
					res, err := core.Search(bg, in, workers(s, w))
					if err != nil {
						t.Fatalf("seed %d %s baseline=%v workers=%d: %v", seed, m, b, w, err)
					}
					for k := kMin; k <= kMax; k++ {
						if want := specOracle(in, s, k); !sameGroups(res.At(k), want) {
							t.Fatalf("seed %d %s baseline=%v workers=%d k=%d: %v != oracle %v",
								seed, m, b, w, k, res.At(k), want)
						}
					}
				}
			}
		}
	}
	// Seven measures, four of them with an ITERTD baseline beside the
	// incremental search.
	if accepted != 11 {
		t.Errorf("Search accepts %d (Measure, Baseline) pairs, want 11", accepted)
	}
}
