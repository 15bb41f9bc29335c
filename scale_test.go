package rankfair_test

import (
	"testing"
	"time"

	"rankfair"
	"rankfair/internal/synth"
)

// TestFullScaleCOMPAS runs the optimized algorithms at the paper's full
// dataset size (6,889 rows, 16 attributes) and default parameters, the
// workload behind Figures 4-9's rightmost points. It guards against
// regressions that only show up at scale.
func TestFullScaleCOMPAS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in -short mode")
	}
	b := synth.COMPAS(synth.DefaultCOMPASRows, 1)
	a, err := rankfair.New(b.Table, b.Ranker)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	global, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 50, KMin: 10, KMax: 49,
		Lower: rankfair.StaircaseBounds(10, 49, 10, 10, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	globalDur := time.Since(start)

	start = time.Now()
	prop, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 50, KMin: 10, KMax: 49, Alpha: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	propDur := time.Since(start)

	if global.TotalGroups() == 0 || prop.TotalGroups() == 0 {
		t.Errorf("full-scale run found no groups: global=%d prop=%d",
			global.TotalGroups(), prop.TotalGroups())
	}
	// The paper's Python baseline needed a 10-minute budget per sweep
	// point; a single optimized run at default parameters must stay far
	// under that on any machine this test runs on.
	if globalDur > time.Minute || propDur > 5*time.Minute {
		t.Errorf("full-scale runs too slow: global=%v prop=%v", globalDur, propDur)
	}
	// Per-k result sets stay reviewable (the Section III observation).
	for k := 10; k <= 49; k++ {
		if len(global.At(k)) >= 1000 {
			t.Errorf("k=%d: %d groups", k, len(global.At(k)))
		}
	}
	t.Logf("full-scale COMPAS: global %v (%d groups), prop %v (%d groups)",
		globalDur, global.TotalGroups(), propDur, prop.TotalGroups())
}
