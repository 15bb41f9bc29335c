package core_test

import (
	"testing"

	"rankfair/internal/core"
	"rankfair/internal/pattern"
)

// edgeInput builds a tiny input with explicit rows and an identity ranking.
func edgeInput(t *testing.T, cards []int, rows [][]int32) *core.Input {
	t.Helper()
	names := make([]string, len(cards))
	for i := range names {
		names[i] = "A"
	}
	ranking := make([]int, len(rows))
	for i := range ranking {
		ranking[i] = i
	}
	in := &core.Input{Rows: rows, Space: &pattern.Space{Names: names, Cards: cards}, Ranking: ranking}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSingleAttributeSingleValue(t *testing.T) {
	// One attribute with cardinality 1: the only pattern is {A=0}, which
	// covers everything — never below a bound it can reach.
	in := edgeInput(t, []int{1}, [][]int32{{0}, {0}, {0}})
	res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 3, Lower: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if len(res.At(k)) != 0 {
			t.Errorf("k=%d: %v", k, res.At(k))
		}
	}
	// An unattainable bound flags the pattern at every k.
	res, err = core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 3, Lower: []int{5, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if len(res.At(k)) != 1 || res.At(k)[0].NumAttrs() != 1 {
			t.Errorf("k=%d: %v", k, res.At(k))
		}
	}
}

func TestZeroLowerBoundNeverBiased(t *testing.T) {
	in := edgeInput(t, []int{2, 2}, [][]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 4, Lower: []int{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGroups() != 0 {
		t.Errorf("L=0 should flag nothing, got %d", res.TotalGroups())
	}
}

func TestZeroSizeThreshold(t *testing.T) {
	// τs=0 admits every pattern, including those with no tuples at all.
	in := edgeInput(t, []int{2}, [][]int32{{0}, {0}})
	res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, Baseline: true, MinSize: 0, KMin: 1, KMax: 1, Lower: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// {A=1} has s_D = 0 and 0 < 1 in the top-1: biased (vacuously).
	found := false
	for _, g := range res.At(1) {
		if g[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("empty-but-admitted pattern missing: %v", res.At(1))
	}
	opt, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: 0, KMin: 1, KMax: 1, Lower: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameGroups(res.At(1), opt.At(1)) {
		t.Errorf("baseline and optimized disagree at τs=0: %v vs %v", res.At(1), opt.At(1))
	}
}

func TestDuplicateRows(t *testing.T) {
	// All rows identical: every matching pattern has full support.
	rows := make([][]int32, 6)
	for i := range rows {
		rows[i] = []int32{1, 0}
	}
	in := edgeInput(t, []int{2, 2}, rows)
	res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureProp, MinSize: 1, KMin: 2, KMax: 4, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Patterns matching the duplicated row are perfectly represented;
	// patterns matching nothing have s_D = 0 < τs... with τs=1 they are
	// pruned. Nothing is biased.
	if res.TotalGroups() != 0 {
		t.Errorf("duplicated rows: %d groups", res.TotalGroups())
	}
}

func TestKEqualsDatasetSize(t *testing.T) {
	// k = |D|: the top-k is the whole dataset, so representation equals
	// dataset share and proportional bias vanishes for α <= 1.
	in := edgeInput(t, []int{3}, [][]int32{{0}, {1}, {2}, {0}, {1}, {2}})
	res, err := core.Search(bg, in, core.Spec{Measure: core.MeasureProp, MinSize: 1, KMin: 6, KMax: 6, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.At(6)) != 0 {
		t.Errorf("full prefix cannot be proportionally biased: %v", res.At(6))
	}
}

func TestKMinEqualsOne(t *testing.T) {
	in := edgeInput(t, []int{2, 2}, [][]int32{{0, 0}, {1, 1}, {0, 1}, {1, 0}})
	base, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, Baseline: true, MinSize: 1, KMin: 1, KMax: 4, Lower: []int{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 4, Lower: []int{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		if !sameGroups(base.At(k), opt.At(k)) {
			t.Errorf("k=%d: %v vs %v", k, base.At(k), opt.At(k))
		}
	}
}

func TestInputValidationErrors(t *testing.T) {
	good := edgeInput(t, []int{2}, [][]int32{{0}, {1}})
	cases := []struct {
		name string
		in   *core.Input
	}{
		{"nil space", &core.Input{Rows: good.Rows, Ranking: good.Ranking}},
		{"no attributes", &core.Input{Rows: [][]int32{{}}, Space: &pattern.Space{}, Ranking: []int{0}}},
		{"name mismatch", &core.Input{Rows: good.Rows, Space: &pattern.Space{Names: []string{"A", "B"}, Cards: []int{2}}, Ranking: good.Ranking}},
		{"zero cardinality", &core.Input{Rows: good.Rows, Space: &pattern.Space{Names: []string{"A"}, Cards: []int{0}}, Ranking: good.Ranking}},
		{"short row", &core.Input{Rows: [][]int32{{0}, {}}, Space: good.Space, Ranking: good.Ranking}},
		{"value out of domain", &core.Input{Rows: [][]int32{{0}, {7}}, Space: good.Space, Ranking: good.Ranking}},
		{"short ranking", &core.Input{Rows: good.Rows, Space: good.Space, Ranking: []int{0}}},
		{"duplicate in ranking", &core.Input{Rows: good.Rows, Space: good.Space, Ranking: []int{0, 0}}},
		{"negative index", &core.Input{Rows: good.Rows, Space: good.Space, Ranking: []int{-1, 1}}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	var nilIn *core.Input
	if err := nilIn.Validate(); err == nil {
		t.Error("nil input should fail")
	}
}

// TestHighCardinalityAttribute exercises domains larger than two values,
// where Proposition 4.3's sibling argument generalizes.
func TestHighCardinalityAttribute(t *testing.T) {
	rows := make([][]int32, 24)
	for i := range rows {
		rows[i] = []int32{int32(i % 6), int32(i % 2)}
	}
	in := edgeInput(t, []int{6, 2}, rows)
	params := core.Spec{Measure: core.MeasureGlobal, MinSize: 2, KMin: 3, KMax: 12, Lower: core.ConstantBounds(3, 12, 2)}
	base, err := core.Search(bg, in, baseline(params))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Search(bg, in, params)
	if err != nil {
		t.Fatal(err)
	}
	for k := 3; k <= 12; k++ {
		if !sameGroups(base.At(k), opt.At(k)) {
			t.Errorf("k=%d mismatch", k)
		}
	}
}
