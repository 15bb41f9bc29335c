package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rankfair/internal/core"
)

// TestQuickGlobalUpperBoundsMatchesIterTD: the incremental upper-bound
// algorithm agrees with the per-k baseline, including across bound changes
// (both increases and decreases trigger rebuilds).
func TestQuickGlobalUpperBoundsMatchesIterTD(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 1 + rng.Intn(5)
		kMax := kMin + rng.Intn(15)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(4)
		upper := make([]int, kMax-kMin+1)
		u := 1 + rng.Intn(4)
		for i := range upper {
			if rng.Intn(5) == 0 {
				u += rng.Intn(3) - 1 // wander up and down
				if u < 1 {
					u = 1
				}
			}
			upper[i] = u
		}
		params := core.Spec{Measure: core.MeasureGlobalUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Upper: upper}
		base, err := core.Search(bg, in, baseline(params))
		if err != nil {
			t.Logf("IterTDGlobalUpper: %v", err)
			return false
		}
		opt, err := core.Search(bg, in, params)
		if err != nil {
			t.Logf("GlobalUpperBounds: %v", err)
			return false
		}
		for k := kMin; k <= kMax; k++ {
			if !sameGroups(base.At(k), opt.At(k)) {
				t.Logf("seed %d k=%d: base %v != opt %v (U=%d τs=%d)", seed, k, base.At(k), opt.At(k), upper[k-kMin], minSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(47)); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalUpperBoundsExaminesFewerNodes: within a constant-bound segment
// the incremental algorithm saves work relative to re-searching per k.
func TestGlobalUpperBoundsExaminesFewerNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	in := randomInput(rng)
	n := len(in.Rows)
	kMax := 18
	if kMax > n {
		kMax = n
	}
	params := core.Spec{Measure: core.MeasureGlobalUpper, MinSize: 1, KMin: 2, KMax: kMax, Upper: core.ConstantBounds(2, kMax, 2)}
	base, err := core.Search(bg, in, baseline(params))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Search(bg, in, params)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.NodesExamined >= base.Stats.NodesExamined {
		t.Errorf("optimized examined %d nodes, baseline %d", opt.Stats.NodesExamined, base.Stats.NodesExamined)
	}
	if opt.Stats.FullSearches != 1 {
		t.Errorf("constant bound should rebuild once, got %d", opt.Stats.FullSearches)
	}
}

func TestGlobalUpperBoundsRunningExample(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureGlobalUpper, MinSize: 4, KMin: 4, KMax: 8, Upper: core.ConstantBounds(4, 8, 2)}
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
}
