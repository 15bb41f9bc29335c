package rankfair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"rankfair"
)

func TestReportJSONRoundTrip(t *testing.T) {
	a := runningAnalyst(t)
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded rankfair.ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Measure != "global-lower" || decoded.KMin != 4 || decoded.KMax != 5 {
		t.Errorf("header: %+v", decoded)
	}
	if len(decoded.Attributes) != 4 || decoded.Attributes[0] != "Gender" {
		t.Errorf("attributes: %v", decoded.Attributes)
	}
	if decoded.NodesExamined == 0 {
		t.Error("stats lost")
	}
	if len(decoded.Results) != 2 {
		t.Fatalf("results for %d ks, want 2", len(decoded.Results))
	}
	k4 := decoded.Results[0]
	if k4.K != 4 || len(k4.Groups) != 6 {
		t.Fatalf("k=4: %d groups, want 6", len(k4.Groups))
	}
	// Keys parse back into live patterns over the analyst's space.
	for _, g := range k4.Groups {
		p, err := a.ParseGroupKey(g.Key)
		if err != nil {
			t.Fatalf("key %q: %v", g.Key, err)
		}
		if p.Count(a.Input().Rows) != g.Size {
			t.Errorf("key %q: size %d, recomputed %d", g.Key, g.Size, p.Count(a.Input().Rows))
		}
		if len(g.Pattern) != p.NumAttrs() {
			t.Errorf("key %q: %d assignments for %d bound attrs", g.Key, len(g.Pattern), p.NumAttrs())
		}
	}
	// The most biased group leads.
	if k4.Groups[0].Bias < k4.Groups[len(k4.Groups)-1].Bias {
		t.Error("groups not ordered by bias")
	}
}

func TestReportJSONAllMeasures(t *testing.T) {
	a := runningAnalyst(t)
	reports := map[string]*rankfair.Report{}
	var err error
	if reports["proportional-lower"], err = a.Detect(rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 5, KMin: 4, KMax: 5, Alpha: 0.9}); err != nil {
		t.Fatal(err)
	}
	if reports["global-upper"], err = a.Detect(rankfair.AuditParams{Measure: rankfair.MeasureGlobalUpper, MinSize: 4, KMin: 5, KMax: 5, Upper: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if reports["exposure"], err = a.Detect(rankfair.AuditParams{Measure: rankfair.MeasureExposure, MinSize: 4, KMin: 5, KMax: 5, Alpha: 0.8}); err != nil {
		t.Fatal(err)
	}
	for want, r := range reports {
		j := r.ToJSON()
		if j.Measure != want {
			t.Errorf("measure = %q, want %q", j.Measure, want)
		}
		if len(j.Results) == 0 {
			t.Errorf("%s: empty results", want)
		}
	}
}

func TestAuditParamsJSONRoundTrip(t *testing.T) {
	in := rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2}, Baseline: true,
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out rankfair.AuditParams
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Measure != in.Measure || out.MinSize != in.MinSize || len(out.Lower) != 2 || !out.Baseline {
		t.Errorf("round trip lost fields: %+v", out)
	}
	if in.CacheKey() != out.CacheKey() {
		t.Errorf("cache keys differ after round trip: %q vs %q", in.CacheKey(), out.CacheKey())
	}
}

func TestAuditParamsValidate(t *testing.T) {
	bad := []rankfair.AuditParams{
		{Measure: "bogus", MinSize: 1, KMin: 1, KMax: 2},
		{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 2},                                           // no alpha
		{Measure: rankfair.MeasurePropUpper, MinSize: 1, KMin: 1, KMax: 2},                                      // no beta
		{Measure: rankfair.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 2},                                         // no bounds
		{Measure: rankfair.MeasureGlobalUpper, MinSize: 1, KMin: 1, KMax: 2},                                    // no bounds
		{Measure: rankfair.MeasureGlobal, MinSize: 1, KMin: 3, KMax: 2},                                         // bad range
		{Measure: rankfair.MeasureProp, MinSize: -1, KMin: 1, KMax: 2, Alpha: 0.8},                              // bad tau
		{Measure: rankfair.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 2, Lower: []int{1}},                        // short bounds
		{Measure: rankfair.MeasurePropUpper, MinSize: 1, KMin: 1, KMax: 2, Beta: 1.2, Baseline: true},           // no baseline variant
		{Measure: rankfair.MeasureLowerSpecific, MinSize: 1, KMin: 1, KMax: 2},                                  // no bounds
		{Measure: rankfair.MeasureUpperGeneral, MinSize: 1, KMin: 1, KMax: 2, Lower: []int{1, 1}},               // no upper bounds
		{Measure: rankfair.MeasureLowerSpecific, MinSize: 1, KMin: 1, KMax: 1, Lower: []int{1}, Baseline: true}, // no baseline variant
		{Measure: rankfair.MeasureUpperGeneral, MinSize: 1, KMin: 1, KMax: 1, Upper: []int{1}, Baseline: true},  // no baseline variant
		{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 2, Alpha: math.NaN()},                        // NaN alpha
		{Measure: rankfair.MeasureExposure, MinSize: 1, KMin: 1, KMax: 2, Alpha: math.Inf(1)},                   // infinite alpha
		{Measure: rankfair.MeasurePropUpper, MinSize: 1, KMin: 1, KMax: 2, Beta: math.NaN()},                    // NaN beta
		{Measure: rankfair.MeasurePropUpper, MinSize: 1, KMin: 1, KMax: 2, Beta: math.Inf(1)},                   // infinite beta
		{Measure: rankfair.MeasureGlobal, MinSize: 1, KMin: 2, KMax: 4, Lower: []int{3, 2, 2}},                  // decreasing L, incremental
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted invalid params", i, p)
		}
	}
	good := []rankfair.AuditParams{
		{Measure: rankfair.MeasureExposure, MinSize: 0, KMin: 2, KMax: 5, Alpha: 0.8},
		{Measure: rankfair.MeasureGlobalUpper, MinSize: 1, KMin: 1, KMax: 1, Upper: []int{2}, Baseline: true},
		{Measure: rankfair.MeasureLowerSpecific, MinSize: 1, KMin: 1, KMax: 1, Lower: []int{1}},
		{Measure: rankfair.MeasureUpperGeneral, MinSize: 1, KMin: 1, KMax: 1, Upper: []int{1}},
		{Measure: rankfair.MeasureGlobal, MinSize: 1, KMin: 2, KMax: 4, Lower: []int{3, 2, 2}, Baseline: true},
		{Measure: rankfair.MeasureLowerSpecific, MinSize: 1, KMin: 2, KMax: 4, Lower: []int{3, 2, 2}},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("valid params %+v rejected: %v", p, err)
		}
	}
	global := rankfair.AuditParams{Measure: rankfair.MeasureGlobal, MinSize: 1, KMin: 1, KMax: 2, Lower: []int{1, 2}}
	specific := global
	specific.Measure = rankfair.MeasureLowerSpecific
	if global.CacheKey() == specific.CacheKey() {
		t.Errorf("global and lower-specific share cache key %q", global.CacheKey())
	}
}

// TestDetectDispatchMatchesTyped checks that both searches Detect routes a
// measure to — the ITERTD baseline and the incremental algorithm — report
// identical groups, and that every measure dispatches.
func TestDetectDispatchMatchesTyped(t *testing.T) {
	a := runningAnalyst(t)
	for _, p := range []rankfair.AuditParams{
		{Measure: rankfair.MeasureGlobal, MinSize: 4, KMin: 4, KMax: 5, Lower: []int{2, 2}},
		{Measure: rankfair.MeasureProp, MinSize: 5, KMin: 4, KMax: 5, Alpha: 0.9},
		{Measure: rankfair.MeasureGlobalUpper, MinSize: 2, KMin: 3, KMax: 10, Upper: rankfair.ConstantBounds(3, 10, 2)},
		{Measure: rankfair.MeasureExposure, MinSize: 4, KMin: 4, KMax: 8, Alpha: 0.8},
	} {
		incremental, err := a.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Baseline = true
		baseline, err := a.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		ij, _ := json.Marshal(incremental.ToJSON().Results)
		bj, _ := json.Marshal(baseline.ToJSON().Results)
		if !bytes.Equal(ij, bj) {
			t.Errorf("%s: baseline groups differ from the incremental search:\n%s\nvs\n%s", p.Measure, bj, ij)
		}
		if incremental.TotalGroups() == 0 {
			t.Errorf("%s: no groups; the comparison is vacuous", p.Measure)
		}
		if incremental.Measure() != baseline.Measure() {
			t.Errorf("%s: Measure() %q vs %q", p.Measure, incremental.Measure(), baseline.Measure())
		}
	}

	for _, m := range rankfair.Measures() {
		p := rankfair.AuditParams{Measure: m, MinSize: 4, KMin: 4, KMax: 5, Alpha: 0.8, Beta: 1.25,
			Lower: []int{2, 2}, Upper: []int{3, 3}}
		if _, err := a.Detect(p); err != nil {
			t.Errorf("Detect(%s): %v", m, err)
		}
	}
	if _, err := a.Detect(rankfair.AuditParams{Measure: "bogus", KMin: 1, KMax: 1}); err == nil {
		t.Error("Detect should reject unknown measures")
	}
}

func TestParseGroupKeyErrors(t *testing.T) {
	a := runningAnalyst(t)
	if _, err := a.ParseGroupKey("not-a-key"); err == nil {
		t.Error("garbage key should fail")
	}
	if _, err := a.ParseGroupKey("0|1"); err == nil {
		t.Error("short key should fail")
	}
	if _, err := a.ParseGroupKey("9|*|*|*"); err == nil {
		t.Error("out-of-domain value should fail")
	}
}

func TestAuditParamsWorkers(t *testing.T) {
	p := rankfair.AuditParams{
		Measure: rankfair.MeasureProp, MinSize: 5, KMin: 2, KMax: 4, Alpha: 0.8, Workers: 4,
	}
	raw, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"workers":4`)) {
		t.Errorf("workers missing from JSON: %s", raw)
	}
	var back rankfair.AuditParams
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workers != 4 {
		t.Errorf("workers did not round-trip: got %d", back.Workers)
	}

	// Workers changes only wall clock, never results, so it must not
	// fragment the result cache.
	q := p
	q.Workers = 0
	if p.CacheKey() != q.CacheKey() {
		t.Errorf("CacheKey varies with workers: %q vs %q", p.CacheKey(), q.CacheKey())
	}

	for _, w := range []int{-1, rankfair.MaxWorkers + 1} {
		bad := p
		bad.Workers = w
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted workers=%d", w)
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate rejected workers=4: %v", err)
	}
}

func TestDetectCtxParallelMatchesSerial(t *testing.T) {
	a := runningAnalyst(t)
	for _, m := range rankfair.Measures() {
		p := rankfair.AuditParams{Measure: m, MinSize: 4, KMin: 4, KMax: 5, Alpha: 0.8, Beta: 1.25,
			Lower: []int{2, 2}, Upper: []int{3, 3}}
		serial, err := a.Detect(p)
		if err != nil {
			t.Fatalf("Detect(%s): %v", m, err)
		}
		p.Workers = 8
		parallel, err := a.DetectCtx(context.Background(), p)
		if err != nil {
			t.Fatalf("DetectCtx(%s, workers=8): %v", m, err)
		}
		sj, _ := json.Marshal(serial.ToJSON())
		pj, _ := json.Marshal(parallel.ToJSON())
		if !bytes.Equal(sj, pj) {
			t.Errorf("measure %s: parallel report differs from serial:\n%s\nvs\n%s", m, pj, sj)
		}
	}
}

func TestDetectCtxCanceled(t *testing.T) {
	a := runningAnalyst(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := a.DetectCtx(ctx, rankfair.AuditParams{
		Measure: rankfair.MeasureProp, MinSize: 4, KMin: 4, KMax: 5, Alpha: 0.8,
	})
	var cerr *rankfair.CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("want CanceledError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
}
