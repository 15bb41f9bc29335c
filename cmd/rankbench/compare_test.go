package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSet builds synthetic untraced search runs: one per value, with the
// given failures in each.
func runSet(name string, failed int, values ...float64) []runRecord {
	var runs []runRecord
	for _, v := range values {
		runs = append(runs, runRecord{
			Workload: "search", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{name: {Value: v, Unit: "ms"}},
		})
	}
	return runs
}

func TestCompareVerdicts(t *testing.T) {
	lower := bound{Name: "audit_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "audits_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	scale := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	for _, tc := range []struct {
		name string
		bd   bound
		a, b []float64
		want string
	}{
		{"same", lower, steady, scale(1.01, steady), unchanged},
		{"slower past the bound", lower, steady, scale(1.2, steady), regressed},
		{"slower within the bound", lower, steady, scale(1.05, steady), unchanged},
		{"faster", lower, steady, scale(0.9, steady), improved},
		{"throughput down", higher, steady, scale(0.8, steady), regressed},
		{"throughput up", higher, steady, scale(1.3, steady), improved},
		{"noisy and overlapping", lower, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(1.05, steady), unresolved},
		{"noisy but separated", lower, []float64{150, 200, 170, 190, 160, 180, 155, 195, 165, 185}, steady, improved},
	} {
		rows := compareRuns([]bound{tc.bd}, runSet(tc.bd.Name, 0, tc.a...), runSet(tc.bd.Name, 0, tc.b...))
		if len(rows) != 2 || rows[0].metric != tc.bd.Name || rows[1].metric != "error_frac" {
			t.Fatalf("%s: rows %+v", tc.name, rows)
		}
		if rows[0].verdict != tc.want {
			t.Errorf("%s: %s (%.3f worse), want %s", tc.name, rows[0].verdict, rows[0].worse, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestCompareMainExitCode runs the command on files: a rise in the error
// fraction fails it even when every metric is unchanged.
func TestCompareMainExitCode(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "audit_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, runs []runRecord) string {
		var buf bytes.Buffer
		for _, r := range runs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", runSet("audit_ms_p50", 0, 100, 101, 99))
	same := write("same.jsonl", runSet("audit_ms_p50", 0, 100, 100, 101))
	failing := write("failing.jsonl", runSet("audit_ms_p50", 1, 100, 100, 101))
	for _, tc := range []struct {
		b    string
		code int
	}{{same, 0}, {failing, 1}} {
		var out, errOut bytes.Buffer
		if code := compareMain([]string{"--bench", bench, a, tc.b}, &out, &errOut); code != tc.code {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(tc.b), code, tc.code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "error_frac") {
			t.Errorf("compare %s printed no error_frac row:\n%s", filepath.Base(tc.b), out.String())
		}
	}
}
