package rankfair_test

import (
	"testing"

	"rankfair"
)

func TestRepairTopK(t *testing.T) {
	a := runningAnalyst(t)
	// The unconstrained top-5 has one GP student (Example 2.3). Repair to
	// require at least 2 from each school.
	sel, err := a.RepairTopK("School", 5, map[string]rankfair.FairTopKConstraint{
		"GP": {Lower: 2},
		"MS": {Lower: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 5 {
		t.Fatalf("selected %d", len(sel))
	}
	in := a.Input()
	schoolIdx := 1 // Gender, School, Address, Failures
	gp, ms := 0, 0
	for _, ri := range sel {
		if in.Rows[ri][schoolIdx] == 0 {
			gp++
		} else {
			ms++
		}
	}
	if gp < 2 || ms < 2 {
		t.Errorf("repaired selection has GP=%d MS=%d", gp, ms)
	}
	// Minimal perturbation: the repair keeps the best-ranked tuples it
	// can; tuple 12 (rank 1, GP) must stay selected.
	found := false
	for _, ri := range sel {
		if ri == 11 {
			found = true
		}
	}
	if !found {
		t.Error("rank-1 tuple dropped by repair")
	}
	// Order is best-first by the original ranking.
	pos := map[int]int{}
	for p, ri := range in.Ranking {
		pos[ri] = p
	}
	for i := 1; i < len(sel); i++ {
		if pos[sel[i-1]] > pos[sel[i]] {
			t.Error("repaired selection not in ranking order")
		}
	}
}

func TestRepairTopKErrors(t *testing.T) {
	a := runningAnalyst(t)
	if _, err := a.RepairTopK("Nope", 5, nil); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := a.RepairTopK("School", 5, map[string]rankfair.FairTopKConstraint{"Hogwarts": {Lower: 1}}); err == nil {
		t.Error("unknown value should fail")
	}
	if _, err := a.RepairTopK("School", 5, map[string]rankfair.FairTopKConstraint{"GP": {Lower: 9}}); err == nil {
		t.Error("infeasible lower bound should fail")
	}
}

func TestMetricsFacade(t *testing.T) {
	aIn := []int{0, 1, 2}
	if tau, err := rankfair.KendallTau(aIn, aIn); err != nil || tau != 1 {
		t.Errorf("tau = %v, %v", tau, err)
	}
	if rho, err := rankfair.SpearmanRho(aIn, []int{2, 1, 0}); err != nil || rho != -1 {
		t.Errorf("rho = %v, %v", rho, err)
	}
	if v, err := rankfair.NDCG([]float64{2, 1, 0}, aIn, 3); err != nil || v != 1 {
		t.Errorf("ndcg = %v, %v", v, err)
	}
}

func TestExposureBaselineAgreesWithOptimized(t *testing.T) {
	a := runningAnalyst(t)
	params := rankfair.AuditParams{Measure: rankfair.MeasureExposure, MinSize: 4, KMin: 4, KMax: 8, Alpha: 0.8}
	opt, err := a.Detect(params)
	if err != nil {
		t.Fatal(err)
	}
	params.Baseline = true
	base, err := a.Detect(params)
	if err != nil {
		t.Fatal(err)
	}
	for k := 4; k <= 8; k++ {
		og, bg := opt.At(k), base.At(k)
		if len(og) != len(bg) {
			t.Fatalf("k=%d: %d vs %d groups", k, len(og), len(bg))
		}
		for i := range og {
			if !og[i].Equal(bg[i]) {
				t.Fatalf("k=%d group %d: %v != %v", k, i, og[i], bg[i])
			}
		}
	}
}
