package core_test

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"rankfair/internal/core"
	"rankfair/internal/pattern"
)

func TestQuickUpperMostGeneralMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 2 + rng.Intn(4)
		kMax := kMin + rng.Intn(6)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(4)
		upper := make([]int, kMax-kMin+1)
		for i := range upper {
			upper[i] = 1 + rng.Intn(4)
		}
		params := core.Spec{Measure: core.MeasureGlobalUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Upper: upper}
		got, err := core.Search(bg, in, as(core.MeasureUpperGeneral, params))
		if err != nil {
			return false
		}
		for k := kMin; k <= kMax; k++ {
			u := upper[k-kMin]
			var exceeding []pattern.Pattern
			pattern.EnumerateAll(in.Space, func(p pattern.Pattern) bool {
				if p.Count(in.Rows) >= minSize && p.CountTopK(in.Rows, in.Ranking, k) > u {
					exceeding = append(exceeding, p)
				}
				return true
			})
			want := pattern.MostGeneral(exceeding)
			if !sameGroups(got.At(k), want) {
				t.Logf("seed %d k=%d: %v != %v", seed, k, got.At(k), want)
				return false
			}
			// Downward closure makes every most general exceeding
			// pattern single-attribute.
			for _, p := range got.At(k) {
				if p.NumAttrs() != 1 {
					t.Logf("seed %d k=%d: non-unary most general %v", seed, k, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(23)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLowerMostSpecificMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 2 + rng.Intn(4)
		kMax := kMin + rng.Intn(6)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(4)
		params := core.Spec{Measure: core.MeasureGlobal, MinSize: minSize, KMin: kMin, KMax: kMax, Lower: core.ConstantBounds(kMin, kMax, 1+rng.Intn(3))}
		got, err := core.Search(bg, in, as(core.MeasureLowerSpecific, params))
		if err != nil {
			return false
		}
		for k := kMin; k <= kMax; k++ {
			l := params.Lower[k-kMin]
			// Oracle: below patterns that are most specific among the
			// substantial-and-below set.
			var below []pattern.Pattern
			pattern.EnumerateAll(in.Space, func(p pattern.Pattern) bool {
				if p.Count(in.Rows) >= minSize && p.CountTopK(in.Rows, in.Ranking, k) < l {
					below = append(below, p)
				}
				return true
			})
			want := pattern.MostSpecific(below)
			if !sameGroups(got.At(k), want) {
				t.Logf("seed %d k=%d: %v != %v (L=%d τs=%d)", seed, k, got.At(k), want, l, minSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(29)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExposureMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 2 + rng.Intn(4)
		kMax := kMin + rng.Intn(8)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(4)
		alpha := 0.3 + rng.Float64()*0.8
		params := core.Spec{Measure: core.MeasureExposure, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: alpha}
		got, err := core.Search(bg, in, baseline(params))
		if err != nil {
			return false
		}
		for k := kMin; k <= kMax; k++ {
			ek := 0.0
			for i := 1; i <= k; i++ {
				ek += core.PositionExposure(i)
			}
			var biased []pattern.Pattern
			pattern.EnumerateAll(in.Space, func(p pattern.Pattern) bool {
				sD := p.Count(in.Rows)
				if sD < minSize {
					return true
				}
				if core.PatternExposure(in, p, k) < alpha*float64(sD)*ek/float64(n) {
					biased = append(biased, p)
				}
				return true
			})
			want := pattern.MostGeneral(biased)
			if !sameGroups(got.At(k), want) {
				t.Logf("seed %d k=%d: %v != %v (α=%v)", seed, k, got.At(k), want, alpha)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(31)); err != nil {
		t.Fatal(err)
	}
}

// TestExposureDistinguishesPositions encodes the Section III motivation:
// two groups with identical top-10 counts but different positions get
// different exposure verdicts.
func TestExposureDistinguishesPositions(t *testing.T) {
	// 20 tuples, one binary attribute: value 0 occupies positions 1-5,
	// value 1 positions 6-10, both absent from 11-20... then both have
	// count 5 in the top-10 but value 1's exposure is much lower.
	rows := make([][]int32, 20)
	ranking := make([]int, 20)
	for i := range rows {
		v := int32(0)
		if (i >= 5 && i < 10) || i >= 15 {
			v = 1
		}
		rows[i] = []int32{v}
		ranking[i] = i
	}
	in := &core.Input{
		Rows:    rows,
		Space:   &pattern.Space{Names: []string{"g"}, Cards: []int{2}},
		Ranking: ranking,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	p0 := pattern.Pattern{0}
	p1 := pattern.Pattern{1}
	if c0, c1 := p0.CountTopK(rows, ranking, 10), p1.CountTopK(rows, ranking, 10); c0 != 5 || c1 != 5 {
		t.Fatalf("counts %d/%d, want 5/5", c0, c1)
	}
	e0 := core.PatternExposure(in, p0, 10)
	e1 := core.PatternExposure(in, p1, 10)
	if e0 <= e1 {
		t.Fatalf("positions 1-5 must out-expose 6-10: %v vs %v", e0, e1)
	}
	// With α tuned between the two exposure shares, only the low-exposure
	// group is reported even though counts are equal.
	ek := e0 + e1
	share := e1 / (ek * 0.5) // e1 relative to its proportional share
	alpha := share + (e0/(ek*0.5)-share)/2
	res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureExposure, Baseline: true, MinSize: 1, KMin: 10, KMax: 10, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	groups := res.At(10)
	if len(groups) != 1 || !groups[0].Equal(p1) {
		t.Fatalf("want exactly {g=1}, got %v", groups)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := randomInput(rng)
	n := len(in.Rows)
	kMax := 15
	if kMax > n {
		kMax = n
	}
	gp := core.Spec{Measure: core.MeasureGlobal, MinSize: 2, KMin: 2, KMax: kMax, Lower: core.ConstantBounds(2, kMax, 2)}
	seq, err := core.Search(bg, in, baseline(gp))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 3, runtime.GOMAXPROCS(0) + 2} {
		par, err := core.Search(bg, in, workers(baseline(gp), w))
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.NodesExamined != seq.Stats.NodesExamined {
			t.Errorf("workers=%d: nodes %d != %d", w, par.Stats.NodesExamined, seq.Stats.NodesExamined)
		}
		for k := gp.KMin; k <= gp.KMax; k++ {
			if !sameGroups(par.At(k), seq.At(k)) {
				t.Fatalf("workers=%d k=%d: %v != %v", w, k, par.At(k), seq.At(k))
			}
		}
	}
	pp := core.Spec{Measure: core.MeasureProp, MinSize: 2, KMin: 2, KMax: kMax, Alpha: 0.8}
	seqP, err := core.Search(bg, in, baseline(pp))
	if err != nil {
		t.Fatal(err)
	}
	parP, err := core.Search(bg, in, workers(baseline(pp), 4))
	if err != nil {
		t.Fatal(err)
	}
	for k := pp.KMin; k <= pp.KMax; k++ {
		if !sameGroups(parP.At(k), seqP.At(k)) {
			t.Fatalf("prop k=%d: %v != %v", k, parP.At(k), seqP.At(k))
		}
	}
	// Validation errors propagate.
	if _, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, Baseline: true, KMin: 0, KMax: 1, Workers: 2}); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := core.Search(bg, in, core.Spec{Measure: core.MeasureProp, Baseline: true, KMin: 1, KMax: 1, Alpha: -1, Workers: 2}); err == nil {
		t.Error("invalid params should fail")
	}
}

// TestQuickThresholdMonotonicity verifies the size-threshold invariant:
// because every proper subset of a qualifying pattern is automatically
// substantial, Res(τs') for τs' > τs is exactly Res(τs) filtered by size.
func TestQuickThresholdMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		k := 2 + rng.Intn(min(10, n-1))
		l := 1 + rng.Intn(3)
		tau1 := 1 + rng.Intn(3)
		tau2 := tau1 + 1 + rng.Intn(4)
		run := func(tau int) []pattern.Pattern {
			res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: tau, KMin: k, KMax: k, Lower: []int{l}})
			if err != nil {
				t.Fatal(err)
			}
			return res.At(k)
		}
		loose := run(tau1)
		tight := run(tau2)
		var filtered []pattern.Pattern
		for _, p := range loose {
			if p.Count(in.Rows) >= tau2 {
				filtered = append(filtered, p)
			}
		}
		return sameGroups(tight, filtered)
	}
	if err := quick.Check(prop, quickCfg(37)); err != nil {
		t.Fatal(err)
	}
}

func TestExposureParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomInput(rng)
	cases := []core.Spec{
		{Measure: core.MeasureExposure, MinSize: 1, KMin: 0, KMax: 5, Alpha: 0.5},
		{Measure: core.MeasureExposure, MinSize: -1, KMin: 1, KMax: 5, Alpha: 0.5},
		{Measure: core.MeasureExposure, MinSize: 1, KMin: 1, KMax: 5, Alpha: 0},
		{Measure: core.MeasureExposure, MinSize: 1, KMin: 1, KMax: 10_000, Alpha: 0.5},
	}
	for i, p := range cases {
		if _, err := core.Search(bg, in, baseline(p)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
