// Quickstart: detect groups with biased representation in a ranking using
// the paper's running example (Figure 1): sixteen students ranked by grade
// with ties broken by fewer past failures.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rankfair"
)

func main() {
	// Build the dataset: categorical attributes define the groups the
	// search can discover; numeric columns feed the ranker.
	students := rankfair.NewDataset()
	check(students.AddCategorical("Gender", []string{
		"F", "M", "M", "M", "M", "F", "F", "M", "F", "F", "M", "F", "F", "M", "F", "M"}))
	check(students.AddCategorical("School", []string{
		"MS", "MS", "GP", "GP", "MS", "MS", "GP", "GP", "MS", "MS", "MS", "GP", "GP", "MS", "GP", "GP"}))
	check(students.AddCategorical("Address", []string{
		"R", "R", "U", "U", "R", "U", "R", "R", "R", "R", "R", "U", "U", "U", "U", "U"}))
	check(students.AddCategorical("Failures", []string{
		"1", "1", "1", "2", "0", "1", "1", "1", "0", "2", "2", "0", "2", "1", "1", "0"}))
	check(students.AddNumeric("Grade", []float64{
		11, 15, 8, 4, 19, 4, 7, 6, 14, 7, 13, 20, 12, 13, 5, 9}))
	check(students.AddNumeric("FailuresNum", []float64{
		1, 1, 1, 2, 0, 1, 1, 1, 0, 2, 2, 0, 2, 1, 1, 0}))

	// The ranking algorithm is a black box to the detector; here it is the
	// paper's scholarship committee ranking.
	analyst, err := rankfair.New(students, &rankfair.ByColumns{Keys: []rankfair.ColumnKey{
		{Column: "Grade", Descending: true},
		{Column: "FailuresNum", Descending: false},
	}})
	check(err)

	// Problem 3.1: groups of at least 4 students must place at least 2
	// members in every top-k for k in [4,5].
	report, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 4,
		KMin:    4, KMax: 5,
		Lower: rankfair.ConstantBounds(4, 5, 2),
	})
	check(err)

	for k := 4; k <= 5; k++ {
		fmt.Printf("groups under-represented in the top-%d:\n", k)
		for _, g := range report.At(k) {
			fmt.Printf("  %s\n", report.Format(g))
		}
	}

	// Problem 3.2: the same question with proportional bounds — every
	// group of at least 5 students should hold roughly its overall share
	// of each top-k, with slack α = 0.9.
	prop, err := analyst.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 5, KMin: 4, KMax: 5, Alpha: 0.9,
	})
	check(err)
	fmt.Println("\nproportionally under-represented (k=5):")
	for _, g := range prop.At(5) {
		fmt.Printf("  %s\n", prop.Format(g))
	}

	fmt.Printf("\nsearch examined %d pattern nodes\n", report.Stats.NodesExamined)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
