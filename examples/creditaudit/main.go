// Credit-scoring audit: an end-to-end loan-ranking review using the
// library's extension surface — suggested bounds, exposure-based fairness
// (position-discounted), bias-ranked reporting, and both report semantics
// (most general vs most specific).
//
// Run with:
//
//	go run ./examples/creditaudit
package main

import (
	"fmt"
	"log"

	"rankfair"
	"rankfair/internal/synth"
)

func main() {
	bundle := synth.GermanCredit(synth.DefaultGermanRows, 23)
	analyst, err := rankfair.New(bundle.Table, bundle.Ranker)
	check(err)

	kMin, kMax := 20, 60

	// 1. Let the library suggest lower bounds from a policy statement:
	// "every substantial group should hold at least 15% of every prefix".
	lower, err := rankfair.SuggestLowerBounds(kMin, kMax, 0.15)
	check(err)
	fmt.Printf("suggested bounds: L_%d=%d ... L_%d=%d\n\n", kMin, lower[0], kMax, lower[len(lower)-1])

	report, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 100, KMin: kMin, KMax: kMax, Lower: lower,
	})
	check(err)

	// 2. Rank the k=60 findings by bias magnitude, the output organization
	// the paper recommends for analysts.
	fmt.Printf("top findings at k=%d, by bias magnitude:\n", kMax)
	infos := report.InfoAt(kMax)
	for i, info := range infos {
		if i == 6 {
			fmt.Printf("  ... and %d more\n", len(infos)-6)
			break
		}
		fmt.Printf("  %s\n", report.Describe(info, kMax))
	}

	// 3. Exposure audit: counts can look fair while positions are not.
	// Groups stuck at the bottom of the prefix earn little exposure.
	exposure, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureExposure,
		MinSize: 100, KMin: kMax, KMax: kMax, Alpha: 0.8,
	})
	check(err)
	countOnly, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 100, KMin: kMax, KMax: kMax, Alpha: 0.8,
	})
	check(err)
	onlyExposure := diff(exposure.At(kMax), countOnly.At(kMax))
	fmt.Printf("\nexposure audit at k=%d: %d groups (count-based: %d)\n",
		kMax, len(exposure.At(kMax)), len(countOnly.At(kMax)))
	if len(onlyExposure) > 0 {
		fmt.Println("flagged only by exposure (present in the prefix, but near its bottom):")
		for i, g := range onlyExposure {
			if i == 8 {
				fmt.Printf("  ... and %d more\n", len(onlyExposure)-8)
				break
			}
			fmt.Printf("  %s\n", exposure.Format(g))
		}
	}

	// 4. The same biased region from the other end: most specific
	// descriptions for case-by-case review.
	specific, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureLowerSpecific,
		MinSize: 100, KMin: kMax, KMax: kMax, Lower: lower[len(lower)-1:],
	})
	check(err)
	fmt.Printf("\nmost general descriptions: %d; most specific: %d\n",
		len(report.At(kMax)), len(specific.At(kMax)))
}

// diff returns patterns in a that are absent from b.
func diff(a, b []rankfair.Pattern) []rankfair.Pattern {
	var out []rankfair.Pattern
	for _, p := range a {
		found := false
		for _, q := range b {
			if p.Equal(q) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, p)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
