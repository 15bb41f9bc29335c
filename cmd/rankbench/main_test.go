package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload, untraced and traced, on shrunken data
// for one second with every check on, and holds the output to the
// metric catalog of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := readBenchmark(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			o := options{
				workload: w.name, seed: 1, seconds: 1, trace: trace, small: true,
				out: filepath.Join(dir, "results.jsonl"), spans: filepath.Join(dir, "spans.json"), workDir: dir,
			}
			var stdout, stderr bytes.Buffer
			rec, err := runWorkload(o, &stdout, &stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, stderr.String())
			}
			if rec.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed:\n%s", w.name, trace, rec.Failed, rec.Attempted, stderr.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			checkOutput(t, w.name, stdout.String(), want)
		}
	}
}

// checkOutput requires one printed line per metric, with its unit, and a
// last line naming exactly the catalog's metrics.
func checkOutput(t *testing.T, workload, out string, want []bound) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := make(map[string]string)
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == workload {
			printed[f[1]] = f[3]
		}
	}
	var last struct {
		Metrics map[string]struct {
			Unit string `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the summary: %v", workload, err)
	}
	for _, m := range want {
		if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", workload, m.Name, unit, m.Unit)
		}
		if got := last.Metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: summary has %s in %q, want %q", workload, m.Name, got, m.Unit)
		}
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s: summary has %d metrics, BENCHMARK.json names %d", workload, len(last.Metrics), len(want))
	}
}
