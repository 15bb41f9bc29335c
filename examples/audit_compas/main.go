// COMPAS-style audit: run both detection algorithms on a recidivism-score
// ranking, then contrast the output with the divergence-based method of
// Pastor et al. (the paper's Section VI-D comparison): most-general
// detection yields a handful of concise groups; divergence mining returns
// a long list full of mutually subsumed subgroups.
//
// Run with:
//
//	go run ./examples/audit_compas
package main

import (
	"fmt"
	"log"

	"rankfair"
	"rankfair/internal/synth"
)

func main() {
	bundle := synth.COMPAS(3000, 11)
	analyst, err := rankfair.New(bundle.Table, bundle.Ranker)
	check(err)

	k := 49

	// The paper's Figure 10b setting: global bounds with a demanding
	// lower bound at k=49.
	report, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 50, KMin: k, KMax: k,
		Lower: rankfair.ConstantBounds(k, k, 40),
	})
	check(err)
	fmt.Printf("groups with fewer than 40 of the top %d (τs=50): %d found\n", k, len(report.At(k)))
	for i, g := range report.At(k) {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(report.At(k))-8)
			break
		}
		fmt.Printf("  %s\n", report.Format(g))
	}

	// Explain the paper's case-study group p2 = {age < 35} (Figure 10b/10e).
	young, err := analyst.Bind(analyst.EmptyPattern(), "age", "<35")
	check(err)
	expl, err := analyst.Explain(young, k, rankfair.ExplainOptions{Seed: 11})
	check(err)
	fmt.Printf("\naggregated Shapley values for %s (%d people):\n", analyst.Format(young), expl.GroupSize)
	for _, s := range expl.Shapley {
		fmt.Printf("  %-26s %+9.2f\n", s.Name, s.Value)
	}
	fmt.Println()
	fmt.Print(expl.Comparison.Render())

	// Contrast with the divergence method: same support threshold, same k.
	div, err := analyst.Divergence(rankfair.DivergenceParams{
		MinSupport: 50.0 / 3000.0, K: k,
	})
	check(err)
	fmt.Printf("\ndivergence method of Pastor et al.: %d subgroups returned\n", len(div.Groups))
	fmt.Println("most negative divergence (most under-exposed):")
	for i := len(div.Groups) - 1; i >= len(div.Groups)-3 && i >= 0; i-- {
		g := div.Groups[i]
		fmt.Printf("  %s (size %d, δ=%+.4f)\n", analyst.Format(g.Pattern), g.Size, g.Divergence)
	}
	fmt.Printf("\nmost-general detection reported %d groups; divergence mining %d —\n",
		len(report.At(k)), len(div.Groups))
	fmt.Println("the paper's point: concise most-general output vs exhaustive subsumed lists.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
