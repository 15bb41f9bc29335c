package core_test

import (
	"math/rand"
	"reflect"
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

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzSpec decodes data into a small input and a Spec of any of the seven
// measures over it: the measure, the space (2-4 attributes of cardinality
// 2-4), 8-47 rows, a ranking (a Fisher-Yates shuffle driven by the bytes),
// the k range, τs, α in [0.2, 2.2), β in [0.5, 4.5) for prop-upper, an L
// that is non-decreasing for global (GLOBALBOUNDS requires it) and wanders
// up and down for lower-specific, and a U that wanders up and down (every
// change of U rebuilds the incremental global-upper search).
func fuzzSpec(data []byte) (*core.Input, core.Spec) {
	b := fuzzBytes(data)
	measure := []string{
		core.MeasureGlobal, core.MeasureProp, core.MeasureExposure, core.MeasureGlobalUpper,
		core.MeasurePropUpper, core.MeasureLowerSpecific, core.MeasureUpperGeneral,
	}[b.next()%7]
	nAttrs := 2 + b.next()%3
	cards := make([]int, nAttrs)
	names := make([]string, nAttrs)
	for a := range cards {
		cards[a] = 2 + b.next()%3
		names[a] = string(rune('A' + a))
	}
	nRows := 8 + b.next()%40
	rows := make([][]int32, nRows)
	for i := range rows {
		rows[i] = make([]int32, nAttrs)
		for a := range rows[i] {
			rows[i][a] = int32(b.next() % cards[a])
		}
	}
	ranking := make([]int, nRows)
	for i := range ranking {
		ranking[i] = i
	}
	for i := nRows - 1; i > 0; i-- {
		j := b.next() % (i + 1)
		ranking[i], ranking[j] = ranking[j], ranking[i]
	}
	kMin := 1 + b.next()%nRows
	kMax := kMin + b.next()%(nRows-kMin+1)
	s := core.Spec{
		Measure: measure,
		MinSize: b.next() % 6,
		KMin:    kMin,
		KMax:    kMax,
		Alpha:   0.2 + float64(b.next())/128,
	}
	switch measure {
	case core.MeasureGlobal:
		l := b.next() % 3
		s.Lower = make([]int, kMax-kMin+1)
		for i := range s.Lower {
			l += b.next() % 2
			s.Lower[i] = l
		}
	case core.MeasureLowerSpecific:
		s.Lower = wander(&b, kMax-kMin+1)
	case core.MeasureGlobalUpper, core.MeasureUpperGeneral:
		s.Upper = wander(&b, kMax-kMin+1)
	case core.MeasurePropUpper:
		s.Beta = 0.5 + float64(b.next())/64
	}
	in := &core.Input{Rows: rows, Space: &pattern.Space{Names: names, Cards: cards}, Ranking: ranking}
	return in, s
}

// wander returns n bounds that start in [1,4] and step by -1, 0 or +1,
// never below 1.
func wander(b *fuzzBytes, n int) []int {
	out := make([]int, n)
	v := 1 + b.next()%4
	for i := range out {
		v = max(v+b.next()%3-1, 1)
		out[i] = v
	}
	return out
}

// FuzzIncrementalMatchesBaseline is the coverage-guided differential of
// the searches of every measure: on inputs decoded from the fuzz bytes,
// the groups of the measure's default search at one and three workers
// must equal the brute-force oracle's at every k, and where the measure
// has an ITERTD baseline beside its incremental search, the baseline's
// too. The quick-check differentials draw from fixed seeds; this target
// lets the fuzzer steer towards flips, resumptions and rebuilds they miss.
func FuzzIncrementalMatchesBaseline(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 30, 1, 0, 1, 1, 0, 2, 1, 0, 1, 1, 0, 1, 0, 0, 1})
	f.Add([]byte{1, 2, 2, 1, 0, 40, 3, 1, 2, 0, 1, 3, 2, 1, 0, 2, 5, 9, 1, 4, 2, 200})
	// exposure: the leading '3' selects it (51 mod 7 = 2).
	f.Add([]byte("3020+00000020202000000000000000020020190A0000"))
	// 3 attributes of cardinality 2, 24 rows and their ranking, then k 4-15;
	// seed appends τs, the α byte and the measure's own bytes.
	lattice := []byte{1, 0, 0, 0, 16,
		0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1,
		0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1,
		0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0,
		5, 2, 9, 1, 7, 3, 0, 4, 8, 2, 6, 1, 5, 3, 0, 2, 9, 4, 1, 7, 3, 2, 1,
		3, 11}
	seed := func(measure byte, tail ...byte) []byte {
		return append(append([]byte{measure}, lattice...), tail...)
	}
	// global-upper, τs 1, with U 3,2,2,2,3,4,4,3,3,3,3,2: it drops and then
	// rises.
	f.Add(seed(3, 1, 0, 1, 2, 0, 1, 1, 2, 2, 1, 0, 1, 1, 1))
	// prop-upper, τs 1, β 1.125.
	f.Add(seed(4, 1, 0, 40))
	// lower-specific, τs 2, with L 2,3,4,3,3,2,3,4,5,4,3,3.
	f.Add(seed(5, 2, 0, 1, 1, 2, 2, 0, 1, 0, 2, 2, 2, 0, 0, 1))
	// upper-general, τs 1, with U 2,1,1,2,3,3,2,2,3,4,4,3.
	f.Add(seed(6, 1, 0, 2, 0, 0, 1, 2, 2, 1, 0, 1, 2, 2, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, s := fuzzSpec(data)
		var base *core.Result
		switch s.Measure {
		case core.MeasurePropUpper, core.MeasureLowerSpecific, core.MeasureUpperGeneral:
			// ITERTD is these measures' only search: the oracle alone.
		default:
			var err error
			if base, err = core.Search(bg, in, baseline(s)); err != nil {
				t.Fatalf("%+v baseline: %v", s, err)
			}
		}
		for _, w := range []int{1, 3} {
			res, err := core.Search(bg, in, workers(s, w))
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", s, w, err)
			}
			for k := s.KMin; k <= s.KMax; k++ {
				if base != nil {
					if got, want := res.At(k), base.At(k); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v workers=%d k=%d: incremental %v != ITERTD %v", s, w, k, got, want)
					}
				}
				if want := specOracle(in, s, k); !sameGroups(res.At(k), want) {
					t.Fatalf("%+v workers=%d k=%d: %v != oracle %v", s, w, k, res.At(k), want)
				}
			}
		}
	})
}
