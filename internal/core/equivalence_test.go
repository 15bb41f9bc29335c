package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rankfair/internal/core"
	"rankfair/internal/count"
	"rankfair/internal/pattern"
	"rankfair/internal/synth"
)

// randomInput builds a random dataset + ranking small enough for the
// brute-force oracle but varied enough to exercise every code path.
func randomInput(rng *rand.Rand) *core.Input {
	nAttrs := 2 + rng.Intn(4) // 2..5
	cards := make([]int, nAttrs)
	names := make([]string, nAttrs)
	for i := range cards {
		cards[i] = 2 + rng.Intn(3) // 2..4
		names[i] = string(rune('A' + i))
	}
	nRows := 20 + rng.Intn(60)
	rows := make([][]int32, nRows)
	for i := range rows {
		r := make([]int32, nAttrs)
		for j := range r {
			r[j] = int32(rng.Intn(cards[j]))
		}
		rows[i] = r
	}
	return &core.Input{
		Rows:    rows,
		Space:   &pattern.Space{Names: names, Cards: cards},
		Ranking: rng.Perm(nRows),
	}
}

// oracleBiased enumerates every pattern and returns the most general ones
// with size >= minSize whose top-k count is below the bound.
func oracleBiased(in *core.Input, minSize, k int, below func(sD, cnt int) bool) []pattern.Pattern {
	var biased []pattern.Pattern
	pattern.EnumerateAll(in.Space, func(p pattern.Pattern) bool {
		sD := p.Count(in.Rows)
		if sD >= minSize && below(sD, p.CountTopK(in.Rows, in.Ranking, k)) {
			biased = append(biased, p)
		}
		return true
	})
	return pattern.MostGeneral(biased)
}

// sameGroups compares two result sets order-insensitively.
func sameGroups(a, b []pattern.Pattern) bool {
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

// quickCfg keeps the property tests fast but meaningful.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestQuickGlobalBoundsMatchesIterTDAndOracle(t *testing.T) {
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
		// Non-decreasing random staircase.
		lower := make([]int, kMax-kMin+1)
		l := 1 + rng.Intn(3)
		for i := range lower {
			if rng.Intn(4) == 0 {
				l += rng.Intn(2)
			}
			lower[i] = l
		}
		params := core.Spec{Measure: core.MeasureGlobal, MinSize: minSize, KMin: kMin, KMax: kMax, Lower: lower}
		base, err := core.Search(bg, in, baseline(params))
		if err != nil {
			t.Logf("IterTDGlobal: %v", err)
			return false
		}
		opt, err := core.Search(bg, in, params)
		if err != nil {
			t.Logf("GlobalBounds: %v", err)
			return false
		}
		for k := kMin; k <= kMax; k++ {
			lk := lower[k-kMin]
			want := oracleBiased(in, minSize, k, func(sD, cnt int) bool { return cnt < lk })
			if !sameGroups(base.At(k), want) {
				t.Logf("seed %d k=%d: IterTD %v != oracle %v", seed, k, base.At(k), want)
				return false
			}
			if !sameGroups(opt.At(k), want) {
				t.Logf("seed %d k=%d: GlobalBounds %v != oracle %v (L=%d τs=%d)", seed, k, opt.At(k), want, lk, minSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(7)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPropBoundsMatchesIterTDAndOracle(t *testing.T) {
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
		alpha := 0.2 + rng.Float64() // (0.2, 1.2): exercises the α>1 path
		params := core.Spec{Measure: core.MeasureProp, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: alpha}
		base, err := core.Search(bg, in, baseline(params))
		if err != nil {
			t.Logf("IterTDProp: %v", err)
			return false
		}
		opt, err := core.Search(bg, in, params)
		if err != nil {
			t.Logf("PropBounds: %v", err)
			return false
		}
		nf := float64(n)
		for k := kMin; k <= kMax; k++ {
			kf := float64(k)
			want := oracleBiased(in, minSize, k, func(sD, cnt int) bool {
				return float64(cnt) < alpha*float64(sD)*kf/nf
			})
			if !sameGroups(base.At(k), want) {
				t.Logf("seed %d k=%d: IterTDProp %v != oracle %v (α=%v)", seed, k, base.At(k), want, alpha)
				return false
			}
			if !sameGroups(opt.At(k), want) {
				t.Logf("seed %d k=%d: PropBounds %v != oracle %v (α=%v τs=%d)", seed, k, opt.At(k), want, alpha, minSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(11)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUpperGlobalMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 2 + rng.Intn(5)
		kMax := kMin + rng.Intn(8)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(4)
		upper := make([]int, kMax-kMin+1)
		for i := range upper {
			upper[i] = 1 + rng.Intn(5)
		}
		params := core.Spec{Measure: core.MeasureGlobalUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Upper: upper}
		got, err := core.Search(bg, in, baseline(params))
		if err != nil {
			t.Logf("IterTDGlobalUpper: %v", err)
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
			want := pattern.MostSpecific(exceeding)
			if !sameGroups(got.At(k), want) {
				t.Logf("seed %d k=%d: upper %v != oracle %v (U=%d τs=%d)", seed, k, got.At(k), want, u, minSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(13)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUpperPropMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 2 + rng.Intn(5)
		kMax := kMin + rng.Intn(8)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(4)
		beta := 1.0 + rng.Float64()*1.5
		params := core.Spec{Measure: core.MeasurePropUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Beta: beta}
		got, err := core.Search(bg, in, params)
		if err != nil {
			t.Logf("IterTDPropUpper: %v", err)
			return false
		}
		nf := float64(n)
		for k := kMin; k <= kMax; k++ {
			kf := float64(k)
			var exceeding []pattern.Pattern
			pattern.EnumerateAll(in.Space, func(p pattern.Pattern) bool {
				sD := p.Count(in.Rows)
				if sD >= minSize && float64(p.CountTopK(in.Rows, in.Ranking, k)) > beta*float64(sD)*kf/nf {
					exceeding = append(exceeding, p)
				}
				return true
			})
			want := pattern.MostSpecific(exceeding)
			if !sameGroups(got.At(k), want) {
				t.Logf("seed %d k=%d: prop upper %v != oracle %v (β=%v τs=%d)", seed, k, got.At(k), want, beta, minSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(17)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParallelMatchesSerial checks the tentpole invariant of the
// worker fan-out: for every measure, both baseline and optimized, the
// parallel lattice search returns results byte-identical to the serial
// path — same per-k groups in the same order, same Stats — across random
// inputs and k ranges.
func TestQuickParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
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
		lower := make([]int, kMax-kMin+1)
		l := 1 + rng.Intn(3)
		for i := range lower {
			if rng.Intn(4) == 0 {
				l += rng.Intn(2)
			}
			lower[i] = l
		}
		upper := make([]int, kMax-kMin+1)
		for i := range upper {
			upper[i] = 1 + rng.Intn(4)
		}
		specs := core.NamedSpecs(
			core.Spec{Measure: core.MeasureGlobal, MinSize: minSize, KMin: kMin, KMax: kMax, Lower: lower},
			core.Spec{Measure: core.MeasureProp, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: 0.2 + rng.Float64()},
			core.Spec{Measure: core.MeasureExposure, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: 0.2 + rng.Float64()},
			core.Spec{Measure: core.MeasureGlobalUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Upper: upper},
			core.Spec{Measure: core.MeasurePropUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Beta: 1.0 + rng.Float64()})
		for name, spec := range specs {
			serial, err := core.Search(ctx, in, spec)
			if err != nil {
				t.Logf("seed %d %s serial: %v", seed, name, err)
				return false
			}
			for _, w := range []int{2, 3, 8} {
				par, err := core.Search(ctx, in, workers(spec, w))
				if err != nil {
					t.Logf("seed %d %s workers=%d: %v", seed, name, w, err)
					return false
				}
				if !reflect.DeepEqual(serial.Groups, par.Groups) {
					t.Logf("seed %d %s workers=%d: groups diverge from serial", seed, name, w)
					return false
				}
				if serial.Stats != par.Stats {
					t.Logf("seed %d %s workers=%d: stats diverge: serial %+v parallel %+v",
						seed, name, w, serial.Stats, par.Stats)
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

// TestQuickOptimizedExaminesFewerNodes checks the headline claim of
// Section VI-B: across a k range, the optimized algorithms examine no more
// pattern nodes than the baseline.
func TestQuickOptimizedExaminesFewerNodes(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		n := len(in.Rows)
		kMin := 2
		kMax := kMin + 10 + rng.Intn(10)
		if kMax > n {
			kMax = n
		}
		minSize := 1 + rng.Intn(3)
		params := core.Spec{Measure: core.MeasureGlobal, MinSize: minSize, KMin: kMin, KMax: kMax, Lower: core.ConstantBounds(kMin, kMax, 2)}
		base, err := core.Search(bg, in, baseline(params))
		if err != nil {
			return false
		}
		opt, err := core.Search(bg, in, params)
		if err != nil {
			return false
		}
		if opt.Stats.NodesExamined > base.Stats.NodesExamined {
			t.Logf("seed %d: optimized examined %d nodes, baseline %d", seed, opt.Stats.NodesExamined, base.Stats.NodesExamined)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(19)); err != nil {
		t.Fatal(err)
	}
}

// TestResumedSubtreesMatchBaseline holds the incremental prop and exposure
// searches to their ITERTD baselines on a COMPAS-shaped input, where each
// step frees frontier nodes binding several attributes and resumes the
// search below them from match sets built along their tree paths. At
// workers 1, 2 and 3 the incremental search reports the baseline's groups
// at every k, and its Stats and SearchStats match its serial run's. The
// baseline runs once: its per-k fan-out never resumes a node.
func TestResumedSubtreesMatchBaseline(t *testing.T) {
	in, err := synth.COMPAS(2000, 1).Input()
	if err != nil {
		t.Fatal(err)
	}
	in.Index = count.Build(in.Rows, in.Space, in.Ranking)
	for _, spec := range []core.Spec{
		{Measure: core.MeasureProp, MinSize: 50, KMin: 10, KMax: 49, Alpha: 0.8},
		{Measure: core.MeasureExposure, MinSize: 50, KMin: 10, KMax: 49, Alpha: 0.8},
	} {
		base, err := core.Search(bg, in, baseline(spec))
		if err != nil {
			t.Fatalf("%s baseline: %v", spec.Measure, err)
		}
		var serial *core.Result
		for _, w := range []int{1, 2, 3} {
			res, err := core.Search(bg, in, workers(spec, w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.Measure, w, err)
			}
			for k := spec.KMin; k <= spec.KMax; k++ {
				if !sameGroups(res.At(k), base.At(k)) {
					t.Fatalf("%s workers=%d k=%d: incremental %v, baseline %v", spec.Measure, w, k, res.At(k), base.At(k))
				}
			}
			if w == 1 {
				if res.Search.PostingIntersections == 0 {
					t.Fatalf("%s: no step resumed a node binding two or more attributes", spec.Measure)
				}
				serial = res
				continue
			}
			if res.Stats != serial.Stats {
				t.Errorf("%s workers=%d: stats %+v, serial %+v", spec.Measure, w, res.Stats, serial.Stats)
			}
			got, want := *res.Search, *serial.Search
			got.Workers, want.Workers = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: search stats %+v, serial %+v", spec.Measure, w, got, want)
			}
			if !reflect.DeepEqual(res.Groups, serial.Groups) {
				t.Errorf("%s workers=%d: groups diverge from the serial run", spec.Measure, w)
			}
		}
	}
}
