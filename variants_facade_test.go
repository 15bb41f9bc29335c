package rankfair_test

import (
	"testing"

	"rankfair"
)

func TestDetectExposureFacade(t *testing.T) {
	a := runningAnalyst(t)
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureExposure,
		MinSize: 4, KMin: 5, KMax: 10, Alpha: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// {School=GP} holds 1 of the top-5 (position 1 only): despite the
	// prime position, one slot of five cannot cover a group of half the
	// dataset at α=0.8.
	found := false
	for _, g := range report.At(5) {
		if report.Format(g) == "{School=GP}" {
			found = true
		}
	}
	if !found {
		t.Errorf("exposure at k=5 should flag {School=GP}: %v", report.At(5))
	}
	infos := report.InfoAt(5)
	for _, info := range infos {
		if info.Bias <= 0 {
			t.Errorf("reported exposure group with non-positive bias: %+v", info)
		}
	}
	if _, err := a.Detect(rankfair.AuditParams{Measure: rankfair.MeasureExposure, MinSize: 1, KMin: 1, KMax: 5, Alpha: 0}); err == nil {
		t.Error("invalid alpha should fail")
	}
}

func TestDetectAlternateSemanticsFacade(t *testing.T) {
	a := runningAnalyst(t)

	spec, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureLowerSpecific,
		MinSize: 4, KMin: 4, KMax: 4, Lower: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Most specific below-bound groups must have no substantial superset;
	// every reported group is still biased and substantial.
	for _, info := range spec.InfoAt(4) {
		if info.Size < 4 || info.TopK >= 2 {
			t.Errorf("bad most-specific group: %+v", info)
		}
	}
	if len(spec.At(4)) == 0 {
		t.Fatal("expected most-specific below-bound groups")
	}

	gen, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureUpperGeneral,
		MinSize: 4, KMin: 5, KMax: 5, Upper: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gen.At(5) {
		if g.NumAttrs() != 1 {
			t.Errorf("most general exceeding groups must bind one attribute: %v", g)
		}
	}
	// {School=MS} holds 3 of the top-5 (> 2).
	found := false
	for _, g := range gen.At(5) {
		if gen.Format(g) == "{School=MS}" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected {School=MS} over-represented: %v", gen.At(5))
	}
}

// TestSemanticsRelationship checks the containment between the two lower-
// bound report semantics: every most-general group is a subset (ancestor)
// of some most-specific group and vice versa — they describe the same
// biased region from opposite ends.
func TestSemanticsRelationship(t *testing.T) {
	a := runningAnalyst(t)
	params := rankfair.AuditParams{Measure: rankfair.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2}}
	gen, err := a.Detect(params)
	if err != nil {
		t.Fatal(err)
	}
	params.Measure = rankfair.MeasureLowerSpecific
	spec, err := a.Detect(params)
	if err != nil {
		t.Fatal(err)
	}
	for k := 4; k <= 5; k++ {
		for _, g := range gen.At(k) {
			covered := false
			for _, s := range spec.At(k) {
				if g.SubsetOf(s) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("k=%d: most-general %v has no most-specific extension", k, g)
			}
		}
		for _, s := range spec.At(k) {
			covered := false
			for _, g := range gen.At(k) {
				if g.SubsetOf(s) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("k=%d: most-specific %v has no most-general ancestor", k, s)
			}
		}
	}
}
