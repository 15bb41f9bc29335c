package core_test

import (
	"context"
	"testing"

	"rankfair/internal/core"
	"rankfair/internal/pattern"
	"rankfair/internal/synth"
)

// bg is the context of searches a test does not cancel.
var bg = context.Background()

// baseline returns s with the ITERTD baseline selected.
func baseline(s core.Spec) core.Spec { s.Baseline = true; return s }

// as returns s retargeted at measure m (same bounds, another semantics).
func as(m string, s core.Spec) core.Spec { s.Measure = m; return s }

// workers returns s with its fan-out set to w.
func workers(s core.Spec, w int) core.Spec { s.Workers = w; return s }

// runningInput materializes the Figure 1 running example.
func runningInput(t *testing.T) *core.Input {
	t.Helper()
	in, err := synth.RunningExample().Input()
	if err != nil {
		t.Fatalf("running example input: %v", err)
	}
	return in
}

// mustParse builds a pattern over the 4-attribute running-example space
// (Gender, School, Address, Failures) from attribute=label pairs.
func mustParse(t *testing.T, in *core.Input, assigns map[string]int32) pattern.Pattern {
	t.Helper()
	p := pattern.Empty(in.Space.NumAttrs())
	for name, v := range assigns {
		found := false
		for i, n := range in.Space.Names {
			if n == name {
				p[i] = v
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no attribute %q in space %v", name, in.Space.Names)
		}
	}
	return p
}

// Running-example dictionary codes (sorted label order):
// Gender: F=0 M=1; School: GP=0 MS=1; Address: R=0 U=1; Failures: 0,1,2.

func TestRankingMatchesFigure1(t *testing.T) {
	in := runningInput(t)
	// Figure 1's Rank column, 1-based: rank r is tuple wantTuple[r-1].
	wantTuple := []int{12, 5, 2, 9, 14, 11, 13, 1, 16, 3, 7, 10, 8, 15, 6, 4}
	for r, tup := range wantTuple {
		if got := in.Ranking[r] + 1; got != tup {
			t.Errorf("rank %d: got tuple %d, want %d", r+1, got, tup)
		}
	}
}

func TestExample23PatternSizes(t *testing.T) {
	in := runningInput(t)
	p := mustParse(t, in, map[string]int32{"School": 0}) // {School=GP}
	if got := p.Count(in.Rows); got != 8 {
		t.Errorf("s_D({School=GP}) = %d, want 8", got)
	}
	if got := p.CountTopK(in.Rows, in.Ranking, 5); got != 1 {
		t.Errorf("s_R5({School=GP}) = %d, want 1", got)
	}
}

// expectGroups asserts that a result set equals the expected patterns
// (order-insensitive).
func expectGroups(t *testing.T, got []pattern.Pattern, want []pattern.Pattern, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d groups, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
		return
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g.Equal(w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: missing %v in %v", label, w, got)
		}
	}
}

// runningGlobalWant returns the exact most general biased sets for the
// Example 4.6 parameters (τs=4, k in [4,5], L4=L5=2), derived by hand from
// Figure 1. The paper's Example 4.6 lists a subset of these ("among
// others").
func runningGlobalWant(t *testing.T, in *core.Input) (k4, k5 []pattern.Pattern) {
	k4 = []pattern.Pattern{
		mustParse(t, in, map[string]int32{"School": 0}),               // {School=GP}
		mustParse(t, in, map[string]int32{"Address": 1}),              // {Address=U}
		mustParse(t, in, map[string]int32{"Failures": 1}),             // {Failures=1}
		mustParse(t, in, map[string]int32{"Failures": 2}),             // {Failures=2}
		mustParse(t, in, map[string]int32{"Gender": 0, "School": 1}),  // {G=F,S=MS}
		mustParse(t, in, map[string]int32{"Gender": 0, "Address": 0}), // {G=F,A=R}
	}
	k5 = []pattern.Pattern{
		mustParse(t, in, map[string]int32{"School": 0}),
		mustParse(t, in, map[string]int32{"Failures": 2}),
		mustParse(t, in, map[string]int32{"Gender": 0, "School": 1}),
		mustParse(t, in, map[string]int32{"Gender": 0, "Address": 0}),
		mustParse(t, in, map[string]int32{"Gender": 0, "Address": 1}),   // promoted from DRes
		mustParse(t, in, map[string]int32{"Gender": 1, "Address": 1}),   // promoted from DRes
		mustParse(t, in, map[string]int32{"Gender": 0, "Failures": 1}),  // promoted from DRes
		mustParse(t, in, map[string]int32{"Address": 0, "Failures": 1}), // promoted from DRes
		mustParse(t, in, map[string]int32{"Address": 1, "Failures": 1}), // found by searchFromNode
	}
	return k4, k5
}

func TestExample46IterTDGlobal(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2}}
	res, err := core.Search(bg, in, baseline(params))
	if err != nil {
		t.Fatalf("IterTDGlobal: %v", err)
	}
	k4, k5 := runningGlobalWant(t, in)
	expectGroups(t, res.At(4), k4, "IterTD Res[4]")
	expectGroups(t, res.At(5), k5, "IterTD Res[5]")
}

func TestExample46GlobalBounds(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2}}
	res, err := core.Search(bg, in, params)
	if err != nil {
		t.Fatalf("GlobalBounds: %v", err)
	}
	k4, k5 := runningGlobalWant(t, in)
	expectGroups(t, res.At(4), k4, "GlobalBounds Res[4]")
	expectGroups(t, res.At(5), k5, "GlobalBounds Res[5]")
}

func TestExample49PropBounds(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureProp, MinSize: 5, KMin: 4, KMax: 5, Alpha: 0.9}
	k4 := []pattern.Pattern{
		mustParse(t, in, map[string]int32{"School": 0}),
		mustParse(t, in, map[string]int32{"Address": 1}),
		mustParse(t, in, map[string]int32{"Failures": 1}),
	}
	k5 := append([]pattern.Pattern{
		mustParse(t, in, map[string]int32{"Gender": 0}),
	}, k4...)
	for _, algo := range []struct {
		name string
		spec core.Spec
	}{
		{"IterTDProp", baseline(params)},
		{"PropBounds", params},
	} {
		res, err := core.Search(bg, in, algo.spec)
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		expectGroups(t, res.At(4), k4, algo.name+" Res[4]")
		expectGroups(t, res.At(5), k5, algo.name+" Res[5]")
	}
}

func TestExample46DResContents(t *testing.T) {
	// The paper's Example 4.6 lists four DRes members after the k=4
	// search; verify they are reached and dominated.
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 4, Lower: []int{2}}
	res, err := core.Search(bg, in, baseline(params))
	if err != nil {
		t.Fatalf("IterTDGlobal: %v", err)
	}
	want := []pattern.Pattern{
		mustParse(t, in, map[string]int32{"Gender": 0, "Address": 1}),
		mustParse(t, in, map[string]int32{"Gender": 1, "Address": 1}),
		mustParse(t, in, map[string]int32{"Gender": 0, "Failures": 1}),
		mustParse(t, in, map[string]int32{"Address": 0, "Failures": 1}),
	}
	// DRes members must be biased but dominated: not in Res, while some
	// proper subset is.
	for _, w := range want {
		if w.Count(in.Rows) < 4 {
			t.Errorf("%v below size threshold", w)
		}
		if got := w.CountTopK(in.Rows, in.Ranking, 4); got >= 2 {
			t.Errorf("%v not biased at k=4 (count %d)", w, got)
		}
		for _, g := range res.At(4) {
			if g.Equal(w) {
				t.Errorf("%v should be dominated (DRes), found in Res", w)
			}
		}
	}
}

func TestTheorem33WorstCase(t *testing.T) {
	// The Figure 2 construction: the result at k=n must contain exactly
	// C(n, n/2) patterns, each binding n/2 attributes to 0.
	const n = 8 // C(8,4) = 70
	b := synth.WorstCase(n)
	in, err := b.Input()
	if err != nil {
		t.Fatalf("worst case input: %v", err)
	}
	t.Run("global", func(t *testing.T) {
		params := core.Spec{Measure: core.MeasureGlobal, MinSize: 2, KMin: n, KMax: n, Lower: []int{n/2 + 1}}
		res, err := core.Search(bg, in, params)
		if err != nil {
			t.Fatalf("GlobalBounds: %v", err)
		}
		checkWorstCase(t, res.At(n), n)
	})
	t.Run("proportional", func(t *testing.T) {
		params := core.Spec{Measure: core.MeasureProp, MinSize: 2, KMin: n, KMax: n, Alpha: float64(n+3) / float64(n+4)}
		res, err := core.Search(bg, in, params)
		if err != nil {
			t.Fatalf("PropBounds: %v", err)
		}
		checkWorstCase(t, res.At(n), n)
	})
}

func checkWorstCase(t *testing.T, got []pattern.Pattern, n int) {
	t.Helper()
	want := binom(n, n/2)
	if len(got) != want {
		t.Fatalf("got %d most general patterns, want C(%d,%d)=%d", len(got), n, n/2, want)
	}
	for _, p := range got {
		if p.NumAttrs() != n/2 {
			t.Errorf("pattern %v binds %d attributes, want %d", p, p.NumAttrs(), n/2)
		}
		for _, a := range p.Attrs() {
			if p[a] != 0 {
				t.Errorf("pattern %v binds attribute %d to %d, want 0", p, a, p[a])
			}
		}
	}
}

func binom(n, k int) int {
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}

func TestGlobalBoundsRejectsDecreasingBounds(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{3, 2}}
	if _, err := core.Search(bg, in, params); err == nil {
		t.Fatal("want error for decreasing bounds")
	}
	// The baseline must accept the same bounds.
	if _, err := core.Search(bg, in, baseline(params)); err != nil {
		t.Fatalf("IterTDGlobal with decreasing bounds: %v", err)
	}
}

func TestParameterValidation(t *testing.T) {
	in := runningInput(t)
	cases := []struct {
		name string
		run  func() error
	}{
		{"kmax beyond dataset", func() error {
			_, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, Baseline: true, MinSize: 1, KMin: 1, KMax: 99, Lower: core.ConstantBounds(1, 99, 1)})
			return err
		}},
		{"bad k range", func() error {
			_, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, Baseline: true, MinSize: 1, KMin: 5, KMax: 4, Lower: nil})
			return err
		}},
		{"bounds length mismatch", func() error {
			_, err := core.Search(bg, in, core.Spec{Measure: core.MeasureGlobal, MinSize: 1, KMin: 2, KMax: 5, Lower: []int{1}})
			return err
		}},
		{"negative threshold", func() error {
			_, err := core.Search(bg, in, core.Spec{Measure: core.MeasureProp, Baseline: true, MinSize: -1, KMin: 2, KMax: 5, Alpha: 0.5})
			return err
		}},
		{"non-positive alpha", func() error {
			_, err := core.Search(bg, in, core.Spec{Measure: core.MeasureProp, MinSize: 1, KMin: 2, KMax: 5, Alpha: 0})
			return err
		}},
		{"zero kmin", func() error {
			_, err := core.Search(bg, in, core.Spec{Measure: core.MeasureProp, MinSize: 1, KMin: 0, KMax: 5, Alpha: 0.5})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestStaircaseBounds(t *testing.T) {
	got := core.StaircaseBounds(10, 49, 10, 10, 10)
	if len(got) != 40 {
		t.Fatalf("len = %d, want 40", len(got))
	}
	checks := map[int]int{10: 10, 19: 10, 20: 20, 29: 20, 30: 30, 39: 30, 40: 40, 49: 40}
	for k, want := range checks {
		if got[k-10] != want {
			t.Errorf("L_%d = %d, want %d", k, got[k-10], want)
		}
	}
	if core.StaircaseBounds(5, 4, 1, 1, 1) != nil {
		t.Error("invalid range should yield nil")
	}
	if core.StaircaseBounds(1, 5, 1, 1, 0) != nil {
		t.Error("zero width should yield nil")
	}
}

func TestResultAccessors(t *testing.T) {
	in := runningInput(t)
	params := core.Spec{Measure: core.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2}}
	res, err := core.Search(bg, in, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.At(3) != nil || res.At(6) != nil {
		t.Error("At outside range should be nil")
	}
	if got := res.TotalGroups(); got != len(res.At(4))+len(res.At(5)) {
		t.Errorf("TotalGroups = %d", got)
	}
	if res.Stats.NodesExamined == 0 || res.Stats.FullSearches == 0 {
		t.Error("stats should be populated")
	}
}
