package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rankfair/internal/core"
)

// TestQuickExposureBoundsMatchesIterTD: the incremental exposure algorithm
// agrees with the per-k baseline on random inputs and parameters.
func TestQuickExposureBoundsMatchesIterTD(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 1 + rng.Intn(5)
		kMax := kMin + rng.Intn(15)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(5)
		alpha := 0.2 + rng.Float64()
		params := core.Spec{Measure: core.MeasureExposure, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: alpha}
		base, err := core.Search(bg, in, baseline(params))
		if err != nil {
			t.Logf("IterTDExposure: %v", err)
			return false
		}
		opt, err := core.Search(bg, in, params)
		if err != nil {
			t.Logf("ExposureBounds: %v", err)
			return false
		}
		for k := kMin; k <= kMax; k++ {
			if !sameGroups(base.At(k), opt.At(k)) {
				t.Logf("seed %d k=%d: base %v != opt %v (α=%v τs=%d)", seed, k, base.At(k), opt.At(k), alpha, minSize)
				return false
			}
		}
		if opt.Stats.NodesExamined > base.Stats.NodesExamined {
			t.Logf("seed %d: optimized examined more nodes (%d > %d)", seed, opt.Stats.NodesExamined, base.Stats.NodesExamined)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(43)); err != nil {
		t.Fatal(err)
	}
}

func TestExposureBoundsRunningExample(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureExposure, MinSize: 4, KMin: 4, KMax: 8, Alpha: 0.8}
	base, err := core.Search(bg, in, baseline(params))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Search(bg, in, params)
	if err != nil {
		t.Fatal(err)
	}
	for k := 4; k <= 8; k++ {
		if !sameGroups(base.At(k), opt.At(k)) {
			t.Errorf("k=%d: %v != %v", k, base.At(k), opt.At(k))
		}
	}
	if len(opt.At(4)) == 0 {
		t.Error("expected exposure-biased groups at k=4")
	}
}

func TestExposureBoundsValidation(t *testing.T) {
	in := runningInput(t)
	bad := []core.Spec{
		{Measure: core.MeasureExposure, MinSize: 1, KMin: 0, KMax: 4, Alpha: 0.5},
		{Measure: core.MeasureExposure, MinSize: 1, KMin: 1, KMax: 4, Alpha: -1},
		{Measure: core.MeasureExposure, MinSize: 1, KMin: 1, KMax: 99, Alpha: 0.5},
	}
	for i, p := range bad {
		if _, err := core.Search(bg, in, p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
