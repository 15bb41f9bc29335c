package rankfair_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rankfair"
	"rankfair/internal/synth"
)

// statsAnalyst builds a facade analyst over the first 8 student
// attributes (full 33-attribute lattices are benchmark territory) with
// its own input, so stats toggles never leak across the
// instrumented/disabled pair.
func statsAnalyst(t *testing.T, b *synth.Bundle) *rankfair.Analyst {
	t.Helper()
	in, err := b.InputAttrs(8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rankfair.NewFromInput(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// engineLabels is the middle level of the TestStatsInvariance and
// TestAppendDifferential subtest IDs: the match-set engine labels of
// earlier releases, kept so the IDs stay comparable across versions. Every
// label now runs the one rank-space engine; its differential across index
// conditions lives in internal/core (TestQuickMatchArmsAgree).
var engineLabels = []string{"lists", "index", "bitmap"}

// statsCases is one audit per measure over a shared k range.
func statsCases(kMin, kMax int) []rankfair.AuditParams {
	span := kMax - kMin + 1
	lower := make([]int, span)
	upper := make([]int, span)
	for i := range lower {
		lower[i] = 2
		upper[i] = 3
	}
	return []rankfair.AuditParams{
		{Measure: rankfair.MeasureGlobal, MinSize: 8, KMin: kMin, KMax: kMax, Lower: lower},
		{Measure: rankfair.MeasureProp, MinSize: 8, KMin: kMin, KMax: kMax, Alpha: 0.8},
		{Measure: rankfair.MeasureGlobalUpper, MinSize: 8, KMin: kMin, KMax: kMax, Upper: upper},
		{Measure: rankfair.MeasurePropUpper, MinSize: 8, KMin: kMin, KMax: kMax, Beta: 1.25},
		{Measure: rankfair.MeasureExposure, MinSize: 8, KMin: kMin, KMax: kMax, Alpha: 0.8},
	}
}

// TestStatsInvariance is the observability layer's no-interference
// contract: collecting search statistics must not change what an audit
// reports. For every measure and serial vs parallel fan-out, the audit
// JSON of an instrumented run minus its "stats" key is byte-identical to a
// run with stats disabled.
func TestStatsInvariance(t *testing.T) {
	b := synth.Students(260, 7)
	for _, label := range engineLabels {
		for _, workers := range []int{1, 4} {
			for _, params := range statsCases(5, 15) {
				params.Workers = workers
				t.Run(fmt.Sprintf("%s/%s/w%d", params.Measure, label, workers), func(t *testing.T) {
					on := statsAnalyst(t, b)
					off := statsAnalyst(t, b)
					off.SetSearchStats(false)

					repOn, err := on.Detect(params)
					if err != nil {
						t.Fatal(err)
					}
					repOff, err := off.Detect(params)
					if err != nil {
						t.Fatal(err)
					}
					if repOn.Search == nil {
						t.Fatal("instrumented run carries no SearchStats")
					}
					if repOn.Search.Strategy != "index" {
						t.Errorf("stats strategy = %q, want %q", repOn.Search.Strategy, "index")
					}
					if repOn.Search.Workers != workers {
						t.Errorf("stats workers = %d, want %d", repOn.Search.Workers, workers)
					}
					if repOff.Search != nil {
						t.Fatal("disabled run still carries SearchStats")
					}

					jOn := repOn.ToJSON()
					if jOn.Stats == nil {
						t.Fatal("instrumented audit JSON has no stats key")
					}
					jOff := repOff.ToJSON()
					if jOff.Stats != nil {
						t.Fatal("disabled audit JSON still has a stats key")
					}
					jOn.Stats = nil
					rawOn, err := json.MarshalIndent(jOn, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					rawOff, err := json.MarshalIndent(jOff, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(rawOn, rawOff) {
						t.Errorf("audit JSON differs beyond the stats key:\n--- instrumented ---\n%s\n--- disabled ---\n%s", rawOn, rawOff)
					}

					// The pooled encoder agrees on the disabled shape too.
					var buf bytes.Buffer
					if err := repOff.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					if want := append(rawOff, '\n'); !bytes.Equal(buf.Bytes(), want) {
						t.Error("WriteJSON of the disabled run diverges from encoding/json")
					}
				})
			}
		}
	}
}

// BenchmarkObsOverhead measures the cost of the always-on search
// instrumentation: the same warm audit with stats collected vs disabled.
// The two timings are the PR's acceptance gate (<= 2% apart, recorded in
// BENCH_PR6.json).
func BenchmarkObsOverhead(b *testing.B) {
	bundle := synth.Students(395, 2)
	for _, mode := range []struct {
		name    string
		enabled bool
	}{
		{"stats-on", true},
		{"stats-off", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			in, err := bundle.InputAttrs(8)
			if err != nil {
				b.Fatal(err)
			}
			a, err := rankfair.NewFromInput(in, nil)
			if err != nil {
				b.Fatal(err)
			}
			a.SetSearchStats(mode.enabled)
			a.Warm()
			params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 10, KMin: 10, KMax: 49, Alpha: 0.8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Detect(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStatsWorkerIndependence: the serialized stats block is fan-out
// independent (audits differing only in worker count share one cache
// entry in the daemon), while the in-process Report.Search still reports
// the width that ran.
func TestStatsWorkerIndependence(t *testing.T) {
	b := synth.Students(260, 7)
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		a := statsAnalyst(t, b)
		rep, err := a.Detect(rankfair.AuditParams{
			Measure: rankfair.MeasureProp, MinSize: 8, KMin: 5, KMax: 15, Alpha: 0.8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Search.Workers != workers {
			t.Errorf("Report.Search.Workers = %d, want %d", rep.Search.Workers, workers)
		}
		raw, err := json.Marshal(rep.ToJSON().Stats)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Errorf("workers=%d serialized stats diverge:\n%s\nvs\n%s", workers, raw, first)
		}
	}
}
