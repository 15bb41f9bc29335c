package rankfair_test

import (
	"fmt"
	"log"

	"rankfair"
	"rankfair/internal/synth"
)

// The examples run on the paper's Figure 1 dataset: sixteen students
// ranked by grade, ties broken by fewer failures.
func exampleAnalyst() *rankfair.Analyst {
	b := synth.RunningExample()
	a, err := rankfair.New(b.Table, b.Ranker)
	if err != nil {
		log.Fatal(err)
	}
	return a
}

// Detect groups below a global lower bound (Problem 3.1, Example 2.4 of
// the paper: with L=2 at k=5, only one GP student makes the top five).
func ExampleAnalyst_detectGlobal() {
	a := exampleAnalyst()
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 8,
		KMin:    5, KMax: 5,
		Lower: rankfair.ConstantBounds(5, 5, 2),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range report.At(5) {
		fmt.Println(report.Format(g))
	}
	// Output:
	// {School=GP}
}

// Detect groups below their proportional share (Problem 3.2, Example 4.9).
func ExampleAnalyst_detectProportional() {
	a := exampleAnalyst()
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureProp,
		MinSize: 5,
		KMin:    4, KMax: 5,
		Alpha: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range report.At(5) {
		fmt.Println(report.Format(g))
	}
	// Output:
	// {Failures=1}
	// {Address=U}
	// {School=GP}
	// {Gender=F}
}

// Rank findings by the magnitude of their bound violation.
func ExampleReport_InfoAt() {
	a := exampleAnalyst()
	report, err := a.Detect(rankfair.AuditParams{
		Measure: rankfair.MeasureGlobal,
		MinSize: 4, KMin: 4, KMax: 4, Lower: []int{2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range report.InfoAt(4)[:2] {
		fmt.Println(report.Describe(info, 4))
	}
	// Output:
	// {Failures=2}: 4 tuples, 0 of top-4 (bound 2.0, bias 2.0)
	// {Failures=1}: 8 tuples, 1 of top-4 (bound 2.0, bias 1.0)
}

// Repair a prefix to meet explicit representation targets.
func ExampleAnalyst_RepairTopK() {
	a := exampleAnalyst()
	selected, err := a.RepairTopK("School", 5, map[string]rankfair.FairTopKConstraint{
		"GP": {Lower: 2},
		"MS": {Lower: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	in := a.Input()
	for _, ri := range selected {
		fmt.Printf("tuple %d (%s)\n", ri+1, a.Format(a.EmptyPattern().With(1, in.Rows[ri][1])))
	}
	// Output:
	// tuple 12 ({School=GP})
	// tuple 5 ({School=MS})
	// tuple 2 ({School=MS})
	// tuple 9 ({School=MS})
	// tuple 13 ({School=GP})
}

// Bind builds patterns from attribute labels.
func ExampleAnalyst_Bind() {
	a := exampleAnalyst()
	p, err := a.Bind(a.EmptyPattern(), "Gender", "F")
	if err != nil {
		log.Fatal(err)
	}
	p, err = a.Bind(p, "School", "MS")
	if err != nil {
		log.Fatal(err)
	}
	in := a.Input()
	fmt.Printf("%s: %d tuples, %d in the top-5\n",
		a.Format(p), p.Count(in.Rows), p.CountTopK(in.Rows, in.Ranking, 5))
	// Output:
	// {Gender=F, School=MS}: 4 tuples, 1 in the top-5
}
