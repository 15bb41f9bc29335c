// Command rankbench is the benchmark for rankfair. Each run hosts a
// rankfaird daemon in process, drives it over HTTP with one of four
// workloads, checks the outputs against the library, and prints the
// end-to-end metrics BENCHMARK.json names — or, with --trace 1, the
// per-layer ones. The last line of its output is a JSON summary.
//
// Usage:
//
//	rankbench --workload search --seed 1 --seconds 20 --trace 0
//	rankbench --seed 7                       # all four workloads, one process each
//	rankbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // results file, one JSON line per run
	spans    string // traced runs: span file
	workDir  string
	small    bool // smoke test: shrunken datasets
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rankbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "search, cold, append, restart, or all (each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every input the run generates")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results.jsonl"), "results file; each run appends one JSON line")
	fs.StringVar(&o.spans, "spans", "", "traced runs: span file (default .bench_build/spans-<workload>-seed<seed>.json)")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for the daemon's data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (trace != 0 && trace != 1) || o.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "rankbench: --trace takes 0 or 1, --seconds at least 1, and no arguments follow the flags")
		return 2
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	rec, err := runWorkload(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rankbench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rankbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(btoi(o.trace)),
			"--out", o.out, "--workdir", o.workDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "rankbench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runRecord is one run as the results file stores it.
type runRecord struct {
	GitSHA    string            `json:"git_sha"`
	CPU       string            `json:"cpu"`
	NProc     int               `json:"nproc"`
	GoVersion string            `json:"go_version"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Invalid   string            `json:"invalid,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Detail holds finer latencies that explain the metrics (per step of
	// an op, the generator's lateness) and, in a traced run, its own
	// end-to-end numbers.
	Detail map[string]metric `json:"detail,omitempty"`
}

func runWorkload(o options, stdout, stderr io.Writer) (*runRecord, error) {
	var run func(*env) error
	for _, w := range workloads {
		if w.name == o.workload {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := newEnv(o, dir)
	if err := run(e); err != nil {
		return nil, err
	}
	if e.attempted == 0 {
		e.attempt()
		e.fail("the timed phase attempted no operation")
	}
	rec := &runRecord{
		GitSHA: gitSHA(), CPU: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Attempted: e.attempted, Failed: len(e.failures), Invalid: e.invalid,
		Detail: e.details(),
	}
	if o.trace {
		m, err := e.perLayer()
		if err != nil {
			return nil, err
		}
		rec.Metrics = m
		for k, v := range e.endToEnd() {
			rec.Detail[k] = v
		}
	} else {
		rec.Metrics = e.endToEnd()
	}
	rec.Correct = rec.Failed == 0 && rec.Invalid == ""

	fmt.Fprintf(stdout, "# rankbench workload=%s seed=%d seconds=%d trace=%d git=%s cpu=%q nproc=%d %s\n",
		o.workload, o.seed, o.seconds, btoi(o.trace), rec.GitSHA, rec.CPU, rec.NProc, rec.GoVersion)
	printMetrics(stdout, o.workload, "", rec.Metrics)
	printMetrics(stdout, o.workload, "detail ", rec.Detail)
	for i, f := range e.failures {
		if i == 10 {
			fmt.Fprintf(stderr, "rankbench: ... and %d more failures\n", len(e.failures)-i)
			break
		}
		fmt.Fprintln(stderr, "rankbench: failure:", f)
	}
	if rec.Invalid != "" {
		fmt.Fprintln(stderr, "rankbench: run invalid:", rec.Invalid)
	}
	if o.trace {
		printSelfTimes(stdout, e.spans)
		printOverhead(stdout, o.out, rec)
		if err := e.spans.write(o.spans, o.workload, o.seed); err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, "# spans written to", o.spans)
	}
	if err := appendRecord(o.out, rec); err != nil {
		return nil, err
	}
	return rec, printSummary(stdout, rec)
}

// details returns the finer latencies of whichever steps the workload has.
func (e *env) details() map[string]metric {
	out := make(map[string]metric)
	for _, name := range []string{"upload", "first_audit", "oneshot", "report", "restart", "first_hit", "first_get", "hit"} {
		if m := e.rec.q(name+"_ms", 0.5, "ms"); m.Samples > 0 {
			out[name+"_ms_p50"] = m
		}
	}
	if m := e.rec.q("gen_late_ms", 0.99, "ms"); m.Samples > 0 {
		out["bench.gen_late_ms_p99"] = m
	}
	out["peak_rss_mb"] = metric{Value: peakRSSMiB(), Unit: "MiB", Samples: 1}
	return out
}

func printMetrics(w io.Writer, workload, prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "%-8s %s%-34s %14.4f %-6s n=%d\n", workload, prefix, n, m.Value, m.Unit, m.Samples)
	}
}

// printSelfTimes prints where a traced run's time went, by span name.
func printSelfTimes(w io.Writer, t *tracer) {
	t.adopt()
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "# self time by span: count, total ms, p50 ms")
	for _, n := range names {
		xs := self[n]
		total := 0.0
		for _, x := range xs {
			total += x
		}
		fmt.Fprintf(w, "#   %-40s %7d %12.3f %10.4f\n", n, len(xs), total, quantile(xs, 0.5))
	}
}

// printOverhead compares a traced run's end-to-end numbers with the last
// untraced run of the same workload and seed in the results file.
func printOverhead(w io.Writer, path string, traced *runRecord) {
	runs, err := loadRuns(path)
	var base *runRecord
	for i := range runs {
		r := &runs[i]
		if !r.Trace && r.Workload == traced.Workload && r.Seed == traced.Seed && r.Seconds == traced.Seconds {
			base = r
		}
	}
	if err != nil || base == nil {
		fmt.Fprintf(w, "# trace overhead: no untraced run of %s seed %d in %s to compare with\n", traced.Workload, traced.Seed, path)
		return
	}
	names := make([]string, 0, len(base.Metrics))
	for n := range base.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if t, ok := traced.Detail[n]; ok && base.Metrics[n].Value != 0 {
			fmt.Fprintf(w, "# trace overhead: %-14s %+7.1f%%\n", n, 100*(t.Value-base.Metrics[n].Value)/base.Metrics[n].Value)
		}
	}
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadRuns reads a results file: one JSON run record per line.
func loadRuns(path string) ([]runRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// printSummary prints the line the benchmark's caller parses: the last
// line of standard output.
func printSummary(w io.Writer, rec *runRecord) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]valueUnit, len(rec.Metrics))
	for n, m := range rec.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
		ms[n] = valueUnit{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func gitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
