// Hiring shortlist audit: the Section III motivation for global bounds.
// In an applicant pool dominated by men, proportional representation lets
// a shortlist stay "fair" while inviting almost no women — proportionality
// reproduces the input skew. Global lower bounds instead let the company
// state an absolute representation target for every shortlist length and
// discover every group that misses it.
//
// Run with:
//
//	go run ./examples/hiring
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rankfair"
)

func main() {
	table, scores := applicantPool(600, 3)
	analyst, err := rankfair.New(table, &rankfair.ByColumns{Keys: []rankfair.ColumnKey{
		{Column: "score", Descending: true},
	}})
	check(err)
	_ = scores

	kMin, kMax := 10, 40

	// Proportional audit: groups should hold their overall share of each
	// shortlist prefix (α = 0.8).
	prop, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 30, KMin: kMin, KMax: kMax, Alpha: 0.8,
	})
	check(err)
	fmt.Printf("proportional audit (α=0.8), k=%d: ", kMax)
	printGroups(prop, kMax)

	// Global audit: the company wants every substantial group to place at
	// least 5 members in the top 10-19 and 10 in the top 20-40 —
	// regardless of its share of the applicant pool.
	global, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 30, KMin: kMin, KMax: kMax,
		Lower: rankfair.StaircaseBounds(kMin, kMax, 5, 5, 10),
	})
	check(err)
	fmt.Printf("global audit (L=5 then 10), k=%d:   ", kMax)
	printGroups(global, kMax)

	fmt.Println("\nwhy they differ: women are ~18% of the pool, so proportionality")
	fmt.Println("expects few of them in the shortlist and stays silent; the global")
	fmt.Println("bound encodes the hiring target and flags the gap (Section III).")

	// The flip side: who exceeds the shortlist share? Upper-bound
	// detection reports the most specific over-represented groups.
	upper, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobalUpper,
		MinSize: 30, KMin: kMax, KMax: kMax,
		Upper: rankfair.ConstantBounds(kMax, kMax, 30),
	})
	check(err)
	fmt.Printf("\nmost specific groups with more than 30 of the top %d:\n", kMax)
	for _, g := range upper.At(kMax) {
		fmt.Printf("  %s\n", upper.Format(g))
	}

	// Detection found the gap; repair closes it. Rebuild the shortlist
	// with the hiring target as an explicit constraint (the constrained
	// ranking of Celis et al., which the paper's detection complements).
	before := countWomen(analyst, analyst.Input().Ranking[:kMax])
	repaired, err := analyst.RepairTopK("gender", kMax, map[string]rankfair.FairTopKConstraint{
		"F": {Lower: 10},
	})
	check(err)
	after := countWomen(analyst, repaired)
	fmt.Printf("\nrepaired shortlist: women %d -> %d of %d (target 10);\n", before, after, kMax)
	fmt.Println("everyone else still enters in score order.")
}

func countWomen(a *rankfair.Analyst, rows []int) int {
	in := a.Input()
	women := 0
	for _, ri := range rows {
		if in.Rows[ri][0] == 0 { // gender is the first attribute; F = code 0
			women++
		}
	}
	return women
}

// applicantPool synthesizes a tech-hiring pool: women are a small fraction
// of applicants but the screening score is gender-blind, so the shortlist
// reproduces the pool's skew — proportionally "fair", absolutely sparse.
func applicantPool(n int, seed int64) (*rankfair.Dataset, []float64) {
	rng := rand.New(rand.NewSource(seed))
	gender := make([]string, n)
	degree := make([]string, n)
	referral := make([]string, n)
	experience := make([]string, n)
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		female := rng.Float64() < 0.18
		if female {
			gender[i] = "F"
		} else {
			gender[i] = "M"
		}
		deg := rng.Intn(3) // 0=BSc 1=MSc 2=PhD
		degree[i] = []string{"BSc", "MSc", "PhD"}[deg]
		hasRef := rng.Float64() < 0.45
		if hasRef {
			referral[i] = "yes"
		} else {
			referral[i] = "no"
		}
		exp := rng.Intn(4)
		experience[i] = []string{"0-2y", "3-5y", "6-9y", "10y+"}[exp]
		score[i] = 50 + 8*float64(deg) + 5*float64(exp) + rng.NormFloat64()*6
		if hasRef {
			score[i] += 7
		}
	}
	t := rankfair.NewDataset()
	check(t.AddCategorical("gender", gender))
	check(t.AddCategorical("degree", degree))
	check(t.AddCategorical("referral", referral))
	check(t.AddCategorical("experience", experience))
	check(t.AddNumeric("score", score))
	return t, score
}

func printGroups(r *rankfair.Report, k int) {
	groups := r.At(k)
	if len(groups) == 0 {
		fmt.Println("(no biased groups)")
		return
	}
	for i, g := range groups {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(r.Format(g))
	}
	fmt.Println()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
