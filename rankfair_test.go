package rankfair_test

import (
	"strings"
	"testing"

	"rankfair"
	"rankfair/internal/synth"
)

// studentsTable builds a small analyst over the synthetic Student dataset.
func studentsAnalyst(t *testing.T) *rankfair.Analyst {
	t.Helper()
	b := synth.Students(200, 11)
	a, err := rankfair.New(b.Table, b.Ranker)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func runningAnalyst(t *testing.T) *rankfair.Analyst {
	t.Helper()
	b := synth.RunningExample()
	a, err := rankfair.New(b.Table, b.Ranker)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewErrors(t *testing.T) {
	if _, err := rankfair.New(nil, &rankfair.Fixed{}); err == nil {
		t.Error("nil dataset should fail")
	}
	b := synth.RunningExample()
	if _, err := rankfair.New(b.Table, nil); err == nil {
		t.Error("nil ranker should fail")
	}
	numericOnly := rankfair.NewDataset()
	if err := numericOnly.AddNumeric("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := rankfair.New(numericOnly, &rankfair.ByColumns{Keys: []rankfair.ColumnKey{{Column: "x"}}}); err == nil {
		t.Error("dataset without categorical attributes should fail")
	}
	if _, err := rankfair.New(b.Table, &rankfair.Fixed{Perm: []int{0}}); err == nil {
		t.Error("broken ranker should surface its error")
	}
}

func TestDetectGlobalFacade(t *testing.T) {
	a := runningAnalyst(t)
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := report.At(5)
	if len(groups) != 9 {
		t.Fatalf("Res[5] has %d groups, want 9", len(groups))
	}
	// Rendering uses attribute names and labels.
	var rendered []string
	for _, g := range groups {
		rendered = append(rendered, report.Format(g))
	}
	joined := strings.Join(rendered, " ")
	for _, want := range []string{"{School=GP}", "{Failures=2}", "{Address=U, Failures=1}"} {
		if !strings.Contains(joined, want) {
			t.Errorf("rendered output missing %s: %s", want, joined)
		}
	}
	// Baseline agrees.
	base, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal, Baseline: true,
		MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.At(5)) != 9 {
		t.Errorf("baseline Res[5] has %d groups", len(base.At(5)))
	}
}

func TestDetectProportionalFacade(t *testing.T) {
	a := runningAnalyst(t)
	for _, baseline := range []bool{false, true} {
		report, err := a.Detect(rankfair.AuditParams{
			Measure: rankfair.MeasureProp, Baseline: baseline, MinSize: 5, KMin: 4, KMax: 5, Alpha: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(report.At(4)) != 3 || len(report.At(5)) != 4 {
			t.Errorf("prop results %d/%d, want 3/4", len(report.At(4)), len(report.At(5)))
		}
	}
}

func TestBindAndFormat(t *testing.T) {
	a := runningAnalyst(t)
	p, err := a.Bind(a.EmptyPattern(), "School", "GP")
	if err != nil {
		t.Fatal(err)
	}
	p, err = a.Bind(p, "Gender", "F")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Format(p); got != "{Gender=F, School=GP}" {
		t.Errorf("Format = %q", got)
	}
	if _, err := a.Bind(p, "Nope", "x"); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := a.Bind(p, "School", "Hogwarts"); err == nil {
		t.Error("unknown label should fail")
	}
}

func TestUpperFacade(t *testing.T) {
	a := runningAnalyst(t)
	up, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobalUpper,
		MinSize: 4, KMin: 5, KMax: 5, Upper: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// {School=MS} has 3 of the top-5 (> 2); some superset chain must be
	// reported as most specific.
	if len(up.At(5)) == 0 {
		t.Error("expected over-represented groups at k=5")
	}
	pu, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasurePropUpper,
		MinSize: 4, KMin: 5, KMax: 5, Beta: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = pu
}

func TestExplainFacade(t *testing.T) {
	a := studentsAnalyst(t)
	p, err := a.Bind(a.EmptyPattern(), "Medu", "primary")
	if err != nil {
		t.Fatal(err)
	}
	expl, err := a.Explain(p, 30, rankfair.ExplainOptions{
		Seed: 2, Permutations: 8, BackgroundSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Shapley) == 0 || expl.Comparison == nil {
		t.Fatal("incomplete explanation")
	}
}

func TestDivergenceFacade(t *testing.T) {
	a := runningAnalyst(t)
	res, err := a.Divergence(rankfair.DivergenceParams{MinSupport: 0.25, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no divergent groups")
	}
}

func TestNewFromInput(t *testing.T) {
	b := synth.RunningExample()
	in, err := b.Input()
	if err != nil {
		t.Fatal(err)
	}
	a, err := rankfair.NewFromInput(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Space().NumAttrs() != 4 {
		t.Error("space lost")
	}
	// Without dictionaries, formatting falls back to raw codes.
	p := a.EmptyPattern().With(0, 1)
	if got := a.Format(p); got != "{Gender=1}" {
		t.Errorf("Format = %q", got)
	}
	bad := &rankfair.Input{}
	if _, err := rankfair.NewFromInput(bad, nil); err == nil {
		t.Error("invalid input should fail")
	}
}

func TestCSVFacadeRoundTrip(t *testing.T) {
	b := synth.RunningExample()
	var sb strings.Builder
	if err := rankfair.WriteCSV(&sb, b.Table); err != nil {
		t.Fatal(err)
	}
	back, err := rankfair.ReadCSV(strings.NewReader(sb.String()), rankfair.CSVOptions{
		CategoricalColumns: []string{"Failures"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 16 {
		t.Errorf("rows = %d", back.NumRows())
	}
}

func TestBoundHelpers(t *testing.T) {
	if got := rankfair.StaircaseBounds(10, 29, 10, 10, 10); got[0] != 10 || got[19] != 20 {
		t.Errorf("staircase = %v", got)
	}
	if got := rankfair.ConstantBounds(1, 3, 7); len(got) != 3 || got[2] != 7 {
		t.Errorf("constant = %v", got)
	}
}
