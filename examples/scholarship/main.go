// Scholarship audit: the paper's motivating scenario at full scale. An
// excellence-scholarship committee ranks students by final grade; the
// award list should be diverse for every cutoff k, not just one. This
// example detects under-represented groups across the whole k range, then
// explains the most persistent one with Shapley values (Section V).
//
// Run with:
//
//	go run ./examples/scholarship
package main

import (
	"fmt"
	"log"

	"rankfair"
	"rankfair/internal/synth"
)

func main() {
	// A synthetic cohort with the schema of the UCI Student Performance
	// data (the paper's Student dataset).
	bundle := synth.Students(synth.DefaultStudentRows, 7)
	analyst, err := rankfair.New(bundle.Table, bundle.Ranker)
	check(err)

	// Scholarships are awarded down the list; positions matter for the
	// amount, so every prefix k in [10, 49] must be fair. A group of at
	// least 50 students is expected to hold at least its proportional
	// share of each prefix, with slack α = 0.8.
	report, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 50,
		KMin:    10, KMax: 49,
		Alpha: 0.8,
	})
	check(err)

	// Summarize: how many prefixes is each group under-represented in?
	persistence := map[string]int{}
	var order []string
	var sample = map[string]rankfair.Pattern{}
	for k := 10; k <= 49; k++ {
		for _, g := range report.At(k) {
			key := report.Format(g)
			if persistence[key] == 0 {
				order = append(order, key)
				sample[key] = g
			}
			persistence[key]++
		}
	}
	fmt.Println("groups under-represented in the scholarship list (by #prefixes affected):")
	worst, worstKey := 0, ""
	for _, key := range order {
		fmt.Printf("  %-45s %2d of 40 prefixes\n", key, persistence[key])
		if persistence[key] > worst {
			worst, worstKey = persistence[key], key
		}
	}
	if worstKey == "" {
		fmt.Println("  (none — the ranking is proportionally fair for every k)")
		return
	}

	// Explain the most persistent group: which attributes drive its
	// members' rank positions?
	fmt.Printf("\nexplaining %s:\n", worstKey)
	expl, err := analyst.Explain(sample[worstKey], 49, rankfair.ExplainOptions{Seed: 7})
	check(err)
	fmt.Println("top attributes by aggregated Shapley value (positive pushes down the list):")
	for _, s := range expl.Shapley {
		fmt.Printf("  %-12s %+8.2f\n", s.Name, s.Value)
	}
	fmt.Println()
	fmt.Print(expl.Comparison.Render())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
