package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"rankfair"
)

func TestArrivalsSeeded(t *testing.T) {
	const n, span = 500, 20 * time.Second
	schedule := func(seed int64) []time.Duration {
		return arrivals(newEnv(options{seed: seed}, "").rand("arrivals"), n, span)
	}
	a, again, b := schedule(1), schedule(1), schedule(2)
	if !slices.Equal(a, again) {
		t.Error("the same seed gave two different schedules")
	}
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if len(a) != n || !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= span {
		t.Errorf("schedule is not %d sorted times in [0, %v)", n, span)
	}
}

// TestCheckReportsCountsCorruption holds the correctness check to both
// sides: a faithful served report passes, and one with a single altered
// count is a failure.
func TestCheckReportsCountsCorruption(t *testing.T) {
	src, err := generate("student", 200, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	p := auditParams(rankfair.MeasureGlobal, defMinSize)
	served := func(corrupt bool) []byte {
		ranker, err := src.ranker.Build()
		if err != nil {
			t.Fatal(err)
		}
		table, err := rankfair.ReadCSV(bytes.NewReader(src.csv), rankfair.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := rankfair.New(table, ranker)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		rj := rep.ToJSON()
		if len(rj.Results) == 0 || len(rj.Results[0].Groups) == 0 {
			t.Fatal("the audit found no groups to corrupt")
		}
		if corrupt {
			rj.Results[0].Groups[0].TopK++
		}
		raw, err := json.MarshalIndent(rj, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, corrupt := range []bool{false, true} {
		e := newEnv(options{seed: 1}, "")
		e.checkReports(map[int]sample{0: {src: src, csv: src.csv, params: p, report: served(corrupt)}})
		if got := len(e.failures) == 1; got != corrupt {
			t.Errorf("corrupt=%v: failures %q", corrupt, e.failures)
		}
	}
}

func TestVariantsMissTheCache(t *testing.T) {
	for _, m := range measures {
		seen := make(map[string]bool)
		base := auditParams(m, defMinSize)
		for i := 0; i < 1000; i++ {
			v := variant(base, i)
			if err := v.Validate(); err != nil {
				t.Fatalf("%s variant %d: %v", m, i, err)
			}
			if seen[v.CacheKey()] {
				t.Fatalf("%s variant %d repeats a cache key", m, i)
			}
			seen[v.CacheKey()] = true
		}
	}
}
