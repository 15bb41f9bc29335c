package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one compared metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spread summarizes one side's runs of one metric.
type spread struct {
	n           int
	q1, med, q3 float64
	lo, hi      float64
}

func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return spread{n: len(s), q1: q1, med: med, q3: q3, lo: s[0], hi: s[len(s)-1]}
}

// quartiles of sorted data, by the method of Python's
// statistics.quantiles(data, n=4) (the default, exclusive one).
func quartiles(s []float64) (q1, med, q3 float64) {
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// comparison is one row of compare's output.
type comparison struct {
	workload, metric, unit string
	a, b                   spread
	worse                  float64 // B's median against A's, positive when worse
	bound                  float64
	verdict                string
}

// judge labels B against A. A side whose quartiles span more than the
// bound cannot resolve a change of that size, so the row is unresolved
// unless every B run reads better (or, by more than the bound, worse)
// than every A run. Otherwise B regressed when its median is worse by
// more than the bound, and improved when it is better by more than A's
// own quartile spread.
func judge(a, b spread, bd bound) (worse float64, verdict string) {
	higher := bd.Better == "higher"
	worse = (b.med - a.med) / math.Abs(a.med)
	allBetter, allWorse := b.hi < a.lo, b.lo > a.hi
	if higher {
		worse = -worse
		allBetter, allWorse = b.lo > a.hi, b.hi < a.lo
	}
	if a.med == 0 {
		worse = 0
	}
	wide := (a.q3-a.q1)/math.Abs(a.med) > bd.Bound || (b.q3-b.q1)/math.Abs(b.med) > bd.Bound
	switch {
	case wide && allBetter:
		return worse, improved
	case wide && allWorse && worse > bd.Bound:
		return worse, regressed
	case wide:
		return worse, unresolved
	case worse > bd.Bound:
		return worse, regressed
	case worse < 0 && math.Abs(b.med-a.med) > a.q3-a.q1:
		return worse, improved
	default:
		return worse, unchanged
	}
}

// compareRuns compares two sets of untraced runs workload by workload:
// every end-to-end metric of the benchmark, plus the error fraction,
// where any rise is a regression.
func compareRuns(bounds []bound, a, b []runRecord) []comparison {
	byWorkload := func(runs []runRecord) map[string][]runRecord {
		out := make(map[string][]runRecord)
		for _, r := range runs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var out []comparison
	for _, w := range workloads {
		ra, rb := wa[w.name], wb[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, bd := range bounds {
			xa, xb := values(ra, bd.Name), values(rb, bd.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := comparison{workload: w.name, metric: bd.Name, unit: bd.Unit, a: summarize(xa), b: summarize(xb), bound: bd.Bound}
			c.worse, c.verdict = judge(c.a, c.b, bd)
			out = append(out, c)
		}
		c := comparison{workload: w.name, metric: "error_frac", unit: "ratio", a: summarize(errorFracs(ra)), b: summarize(errorFracs(rb))}
		c.worse = c.b.hi - c.a.hi
		switch {
		case c.b.hi > c.a.hi:
			c.verdict = regressed
		case c.b.hi < c.a.hi:
			c.verdict = improved
		default:
			c.verdict = unchanged
		}
		out = append(out, c)
	}
	return out
}

func values(runs []runRecord, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func errorFracs(runs []runRecord) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = ratio(float64(r.Failed), float64(r.Attempted))
	}
	return xs
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rankbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: rankbench compare [--bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "rankbench compare:", err)
		return 2
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "rankbench compare: %s: %v\n", *bench, err)
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "rankbench compare:", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "rankbench compare:", err)
		return 2
	}
	rows := compareRuns(spec.EndToEnd, a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "rankbench compare: the two files share no workload")
		return 2
	}
	fmt.Fprintf(stdout, "%-8s %-14s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3] (n)", "B median [q1 q3] (n)", "change", "bound", "verdict")
	code := 0
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-8s %-14s %-34s %-34s %+7.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.a.format(), c.b.format(), 100*c.worse, 100*c.bound, c.verdict)
		if c.verdict == regressed {
			code = 1
		}
	}
	return code
}

func (s spread) format() string {
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", s.med, s.q1, s.q3, s.n)
}
