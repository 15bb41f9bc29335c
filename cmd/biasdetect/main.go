// Command biasdetect runs the paper's detection algorithms over a CSV file
// (or a built-in synthetic dataset) and prints, for each k, the most
// general groups with biased representation in the top-k.
//
// Usage:
//
//	biasdetect -demo student -measure prop -kmin 10 -kmax 49 -tau 50 -alpha 0.8
//	biasdetect -input applicants.csv -rank-by score \
//	    -measure global -kmin 10 -kmax 49 -tau 50 -lbase 10 -lstep 10 -lwidth 10
//	biasdetect -demo compas -measure global-upper -kmin 20 -kmax 40 -uconst 15
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rankfair"
	"rankfair/internal/synth"
)

func main() {
	var (
		input    = flag.String("input", "", "CSV file to analyze (header row required)")
		demo     = flag.String("demo", "", "built-in dataset instead of -input: running|student|compas|german")
		rows     = flag.Int("rows", 0, "row count for -demo generators (0 = paper default)")
		seed     = flag.Int64("seed", 1, "seed for -demo generators")
		rankBy   = flag.String("rank-by", "", "numeric column to rank by, descending (for -input)")
		measure  = flag.String("measure", "global", "fairness measure: "+strings.Join(rankfair.Measures(), "|"))
		kMin     = flag.Int("kmin", 10, "smallest k")
		kMax     = flag.Int("kmax", 49, "largest k")
		tau      = flag.Int("tau", 50, "size threshold τs on the group size in the dataset")
		alpha    = flag.Float64("alpha", 0.8, "proportional lower slack α")
		beta     = flag.Float64("beta", 1.25, "proportional upper slack β")
		lBase    = flag.Int("lbase", 10, "global lower bound staircase: base")
		lStep    = flag.Int("lstep", 10, "global lower bound staircase: step")
		lWidth   = flag.Int("lwidth", 10, "global lower bound staircase: width in k")
		uConst   = flag.Int("uconst", 20, "global upper bound (constant over k)")
		summary  = flag.Bool("summary", false, "print one line per group with its k ranges instead of per-k listings")
		baseline = flag.Bool("baseline", false, "use the ITERTD baseline instead of the incremental algorithm (global, prop, global-upper, exposure)")
		asJSON   = flag.Bool("json", false, "emit the full report as JSON instead of text")
	)
	flag.Parse()

	if err := run(options{
		input: *input, demo: *demo, rows: *rows, seed: *seed, rankBy: *rankBy,
		measure: *measure, kMin: *kMin, kMax: *kMax, tau: *tau,
		alpha: *alpha, beta: *beta,
		lBase: *lBase, lStep: *lStep, lWidth: *lWidth, uConst: *uConst,
		summary: *summary, baseline: *baseline, asJSON: *asJSON,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "biasdetect:", err)
		os.Exit(1)
	}
}

type options struct {
	input, demo, rankBy, measure string
	rows                         int
	seed                         int64
	kMin, kMax, tau              int
	alpha, beta                  float64
	lBase, lStep, lWidth, uConst int
	summary, baseline, asJSON    bool
}

func run(o options) error {
	a, err := buildAnalyst(o)
	if err != nil {
		return err
	}
	n := len(a.Input().Rows)
	if o.kMax > n {
		return fmt.Errorf("kmax=%d exceeds dataset size %d", o.kMax, n)
	}

	report, err := a.Detect(rankfair.AuditParams{
		Measure: o.measure, MinSize: o.tau, KMin: o.kMin, KMax: o.kMax,
		Alpha: o.alpha, Beta: o.beta,
		Lower:    rankfair.StaircaseBounds(o.kMin, o.kMax, o.lBase, o.lStep, o.lWidth),
		Upper:    rankfair.ConstantBounds(o.kMin, o.kMax, o.uConst),
		Baseline: o.baseline,
	})
	if err != nil {
		return err
	}

	if o.asJSON {
		return report.WriteJSON(os.Stdout)
	}

	fmt.Printf("dataset: %d tuples, %d attributes; measure: %s; k∈[%d,%d]; τs=%d\n",
		n, a.Space().NumAttrs(), o.measure, o.kMin, o.kMax, o.tau)
	fmt.Printf("examined %d pattern nodes in %d full searches; %d group reports total\n\n",
		report.Stats.NodesExamined, report.Stats.FullSearches, report.TotalGroups())

	if o.summary {
		printSummary(report, o.kMin, o.kMax)
		return nil
	}
	prev := ""
	for k := o.kMin; k <= o.kMax; k++ {
		groups := report.At(k)
		var parts []string
		for _, g := range groups {
			parts = append(parts, report.Format(g))
		}
		line := strings.Join(parts, " ")
		if line == prev {
			continue // only print ks where the result set changes
		}
		prev = line
		if line == "" {
			line = "(none)"
		}
		fmt.Printf("k=%-4d %s\n", k, line)
	}
	return nil
}

// printSummary prints one line per distinct group with the k intervals it
// is reported in, most persistent groups first.
func printSummary(report *rankfair.Report, kMin, kMax int) {
	type span struct{ lo, hi int }
	spans := map[string][]span{}
	order := []string{}
	for k := kMin; k <= kMax; k++ {
		for _, g := range report.At(k) {
			key := report.Format(g)
			s := spans[key]
			if s == nil {
				order = append(order, key)
			}
			if len(s) > 0 && s[len(s)-1].hi == k-1 {
				s[len(s)-1].hi = k
			} else {
				s = append(s, span{k, k})
			}
			spans[key] = s
		}
	}
	for _, key := range order {
		var parts []string
		total := 0
		for _, s := range spans[key] {
			if s.lo == s.hi {
				parts = append(parts, fmt.Sprintf("k=%d", s.lo))
			} else {
				parts = append(parts, fmt.Sprintf("k=%d..%d", s.lo, s.hi))
			}
			total += s.hi - s.lo + 1
		}
		fmt.Printf("%-50s %3d ks: %s\n", key, total, strings.Join(parts, ", "))
	}
}

func buildAnalyst(o options) (*rankfair.Analyst, error) {
	if o.demo != "" {
		b, err := demoBundle(o.demo, o.rows, o.seed)
		if err != nil {
			return nil, err
		}
		return rankfair.New(b.Table, b.Ranker)
	}
	if o.input == "" {
		return nil, fmt.Errorf("need -input or -demo (try -demo student)")
	}
	f, err := os.Open(o.input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	table, err := rankfair.ReadCSV(f, rankfair.CSVOptions{})
	if err != nil {
		return nil, err
	}
	if o.rankBy == "" {
		return nil, fmt.Errorf("-input requires -rank-by <numeric column>")
	}
	return rankfair.New(table, &rankfair.ByColumns{Keys: []rankfair.ColumnKey{
		{Column: o.rankBy, Descending: true},
	}})
}

func demoBundle(name string, rows int, seed int64) (*synth.Bundle, error) {
	switch name {
	case "running":
		return synth.RunningExample(), nil
	case "student":
		if rows <= 0 {
			rows = synth.DefaultStudentRows
		}
		return synth.Students(rows, seed), nil
	case "compas":
		if rows <= 0 {
			rows = synth.DefaultCOMPASRows
		}
		return synth.COMPAS(rows, seed), nil
	case "german":
		if rows <= 0 {
			rows = synth.DefaultGermanRows
		}
		return synth.GermanCredit(rows, seed), nil
	default:
		return nil, fmt.Errorf("unknown demo dataset %q (want running|student|compas|german)", name)
	}
}
