package rankfair_test

import (
	"strings"
	"testing"

	"rankfair"
)

func TestInfoAtGlobalBiasRanking(t *testing.T) {
	a := runningAnalyst(t)
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	infos := report.InfoAt(4)
	if len(infos) != len(report.At(4)) {
		t.Fatalf("InfoAt size %d != At size %d", len(infos), len(report.At(4)))
	}
	for i, info := range infos {
		if info.Required != 2 {
			t.Errorf("global bound should be 2, got %v", info.Required)
		}
		if info.Bias != 2-float64(info.TopK) {
			t.Errorf("bias mismatch: %+v", info)
		}
		if info.Size < 4 {
			t.Errorf("reported group below threshold: %+v", info)
		}
		if i > 0 && infos[i].Bias > infos[i-1].Bias {
			t.Errorf("not sorted by bias at %d", i)
		}
	}
	// {Failures=2} has 0 of the top-4 — maximal bias 2 — and must sort
	// ahead of the count-1 groups.
	if infos[0].TopK != 0 {
		t.Errorf("most biased group has count %d, want 0: %+v", infos[0].TopK, infos[0])
	}
	desc := report.Describe(infos[0], 4)
	for _, want := range []string{"tuples", "top-4", "bias"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q: %s", want, desc)
		}
	}
	if report.InfoAt(99) != nil {
		t.Error("out-of-range k should be nil")
	}
}

func TestInfoAtProportional(t *testing.T) {
	a := runningAnalyst(t)
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 5, KMin: 4, KMax: 5, Alpha: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range report.InfoAt(4) {
		// Bound = 0.9 * sD * 4/16 and the group must violate it.
		want := 0.9 * float64(info.Size) * 4.0 / 16.0
		if info.Required != want {
			t.Errorf("bound %v, want %v", info.Required, want)
		}
		if float64(info.TopK) >= info.Required {
			t.Errorf("reported group does not violate its bound: %+v", info)
		}
	}
}

func TestInfoAtUpper(t *testing.T) {
	a := runningAnalyst(t)
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobalUpper,
		MinSize: 4, KMin: 5, KMax: 5, Upper: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range report.InfoAt(5) {
		if info.TopK <= 2 {
			t.Errorf("upper report must exceed the bound: %+v", info)
		}
		if info.Bias != float64(info.TopK)-2 {
			t.Errorf("upper bias mismatch: %+v", info)
		}
	}
	prop, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasurePropUpper,
		MinSize: 4, KMin: 5, KMax: 5, Beta: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range prop.InfoAt(5) {
		if float64(info.TopK) <= info.Required {
			t.Errorf("prop upper report must exceed its bound: %+v", info)
		}
	}
}

func TestSuggestLowerBounds(t *testing.T) {
	got, err := rankfair.SuggestLowerBounds(10, 20, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("len %d", len(got))
	}
	if got[0] != 2 || got[10] != 5 { // floor(0.25*10)=2, floor(0.25*20)=5
		t.Errorf("bounds = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("suggested bounds must be non-decreasing")
		}
	}
	// Suggested bounds must be accepted by the optimized algorithm.
	a := runningAnalyst(t)
	lower, err := rankfair.SuggestLowerBounds(4, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Detect(rankfair.AuditParams{Measure: rankfair.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 8, Lower: lower}); err != nil {
		t.Fatalf("suggested bounds rejected: %v", err)
	}
	if _, err := rankfair.SuggestLowerBounds(5, 4, 0.5); err == nil {
		t.Error("bad range should fail")
	}
	if _, err := rankfair.SuggestLowerBounds(1, 5, 0); err == nil {
		t.Error("zero share should fail")
	}
	if _, err := rankfair.SuggestLowerBounds(1, 5, 1.5); err == nil {
		t.Error("share > 1 should fail")
	}
}
