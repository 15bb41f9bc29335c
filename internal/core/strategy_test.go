package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rankfair/internal/count"
	"rankfair/internal/pattern"
)

// strategyInput builds a random dataset + ranking, mirroring the
// equivalence-suite generator but available inside the package so the
// index-condition tests can reuse the cancellation harness.
func strategyInput(rng *rand.Rand) *Input {
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
	return &Input{
		Rows:    rows,
		Space:   &pattern.Space{Names: names, Cards: cards},
		Ranking: rng.Perm(nRows),
	}
}

// strategySpecs names every search with randomized parameters for an
// input of n rows, so the index conditions can be compared wholesale.
func strategySpecs(n int, rng *rand.Rand) map[string]Spec {
	kMin := 1 + rng.Intn(5)
	kMax := kMin + rng.Intn(15)
	if kMax > n {
		kMax = n
	}
	minSize := rng.Intn(5)
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
	return NamedSpecs(
		Spec{Measure: MeasureGlobal, MinSize: minSize, KMin: kMin, KMax: kMax, Lower: lower},
		Spec{Measure: MeasureProp, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: 0.2 + rng.Float64()},
		Spec{Measure: MeasureExposure, MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: 0.2 + rng.Float64()},
		Spec{Measure: MeasureGlobalUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Upper: upper},
		Spec{Measure: MeasurePropUpper, MinSize: minSize, KMin: kMin, KMax: kMax, Beta: 1.0 + rng.Float64()})
}

// indexConditions returns the index conditions a search can start from: none
// attached (the search builds its own), a pre-built index, and an index
// derived by count.Index.Extend from a prefix of the rows — the streaming
// append path.
func indexConditions(in *Input) []struct {
	name string
	ix   *count.Index
} {
	m := len(in.Rows) * 2 / 3
	var prefixRanking []int
	for _, ri := range in.Ranking {
		if ri < m {
			prefixRanking = append(prefixRanking, ri)
		}
	}
	extended := count.Build(in.Rows[:m], in.Space, prefixRanking).Extend(in.Rows, in.Space, in.Ranking)
	return []struct {
		name string
		ix   *count.Index
	}{
		{"cold", nil},
		{"warm", count.Build(in.Rows, in.Space, in.Ranking)},
		{"extended", extended},
	}
}

// withIndex returns a shallow copy of in over the given index.
func withIndex(in *Input, ix *count.Index) *Input {
	cp := *in
	cp.Index = ix
	return &cp
}

// TestQuickMatchArmsAgree is the engine's index-condition differential:
// for every entry point, searches over cold, warm and extended indexes,
// serial and fanned out, return Groups and Stats byte-identical to the
// serial run over a cold index. The brute-force oracles of the
// equivalence suites pin that reference run.
func TestQuickMatchArmsAgree(t *testing.T) {
	ctx := context.Background()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := strategyInput(rng)
		// One parameter draw shared by the reference run and every variant.
		specs := strategySpecs(len(base.Rows), rand.New(rand.NewSource(seed+1)))
		for _, idx := range indexConditions(base) {
			in := withIndex(base, idx.ix)
			for name, spec := range specs {
				want, err := Search(ctx, base, spec)
				if err != nil {
					t.Logf("seed %d %s reference: %v", seed, name, err)
					return false
				}
				for _, w := range []int{1, 3} {
					got, err := Search(ctx, in, workers(spec, w))
					if err != nil {
						t.Logf("seed %d %s %s workers=%d: %v", seed, name, idx.name, w, err)
						return false
					}
					if !reflect.DeepEqual(want.Groups, got.Groups) {
						t.Logf("seed %d %s %s workers=%d: groups diverge from the reference", seed, name, idx.name, w)
						return false
					}
					if want.Stats != got.Stats {
						t.Logf("seed %d %s %s workers=%d: stats diverge: reference %+v got %+v",
							seed, name, idx.name, w, want.Stats, got.Stats)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyCanceledRunsAgree drives every index condition into the
// same deterministic cancellation (a poll-budget
// context, serial workers) and asserts they abandon the search at the
// same point: each reports a CanceledError carrying the same partial-work
// count.
func TestStrategyCanceledRunsAgree(t *testing.T) {
	base := denseCancelInput(12, 1500)
	indexes := indexConditions(base)
	for name, spec := range strategySpecs(len(base.Rows), rand.New(rand.NewSource(31))) {
		for _, budget := range []int64{1, 5} {
			want := int64(-1)
			for _, idx := range indexes {
				res, err := Search(newBudgetCtx(budget), withIndex(base, idx.ix), spec)
				if res != nil {
					t.Errorf("%s budget=%d %s: canceled run returned a result", name, budget, idx.name)
					continue
				}
				var ce *CanceledError
				if !errors.As(err, &ce) {
					t.Errorf("%s budget=%d %s: want CanceledError, got %v", name, budget, idx.name, err)
					continue
				}
				if want < 0 {
					want = ce.NodesExamined
				} else if ce.NodesExamined != want {
					t.Errorf("%s budget=%d %s: examined %d nodes before the halt, first index %d",
						name, budget, idx.name, ce.NodesExamined, want)
				}
			}
		}
	}
}

// TestValidateRejectsMismatchedIndex guards the one consistency check the
// input performs on an attached index.
func TestValidateRejectsMismatchedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := strategyInput(rng)
	other := strategyInput(rng)
	if len(other.Rows) == len(in.Rows) {
		other.Rows = other.Rows[:len(other.Rows)-1]
		other.Ranking = nil // irrelevant: row-count check fires first
	}
	bad := count.Build(other.Rows, other.Space, make([]int, len(other.Rows)))
	in.Index = bad
	if err := in.Validate(); err == nil {
		t.Error("Validate accepted an index over a different row count")
	}
	// The check must also fire on an already-validated input: attaching a
	// mismatched index later cannot hide behind the validation memo.
	in.Index = nil
	if err := in.Validate(); err != nil {
		t.Fatalf("clean input rejected: %v", err)
	}
	in.Index = bad
	if err := in.Validate(); err == nil {
		t.Error("memoized Validate accepted a mismatched index attached after validation")
	}
}
