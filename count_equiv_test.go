package rankfair

import (
	"encoding/json"
	"math/rand"
	"testing"

	"rankfair/internal/explain"
	"rankfair/internal/synth"
)

// equivAnalyst builds an analyst over a synthetic dataset for the
// differential tests between the indexed and naive counting paths.
func equivAnalyst(t testing.TB, bundle *synth.Bundle, attrs int) *Analyst {
	t.Helper()
	in, err := bundle.InputAttrs(attrs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewFromInput(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// equivReports runs one detection per measure over the analyst.
func equivReports(t testing.TB, a *Analyst) map[string]*Report {
	t.Helper()
	n := len(a.Input().Rows)
	kMax := 49
	if kMax > n {
		kMax = n
	}
	reports := map[string]*Report{}
	detections := []struct {
		name string
		run  func() (*Report, error)
	}{
		{"global", func() (*Report, error) {
			return a.Detect(AuditParams{Measure: MeasureGlobal, MinSize: 10, KMin: 10, KMax: kMax, Lower: StaircaseBounds(10, kMax, 10, 10, 10)})
		}},
		{"prop", func() (*Report, error) {
			return a.Detect(AuditParams{Measure: MeasureProp, MinSize: 10, KMin: 10, KMax: kMax, Alpha: 0.8})
		}},
		{"global-upper", func() (*Report, error) {
			return a.Detect(AuditParams{Measure: MeasureGlobalUpper, MinSize: 10, KMin: 10, KMax: kMax, Upper: ConstantBounds(10, kMax, 8)})
		}},
		{"prop-upper", func() (*Report, error) {
			return a.Detect(AuditParams{Measure: MeasurePropUpper, MinSize: 10, KMin: 10, KMax: kMax, Beta: 1.2})
		}},
		{"exposure", func() (*Report, error) {
			return a.Detect(AuditParams{Measure: MeasureExposure, MinSize: 10, KMin: 10, KMax: kMax, Alpha: 0.8})
		}},
	}
	for _, d := range detections {
		rep, err := d.run()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		reports[d.name] = rep
	}
	return reports
}

// TestToJSONByteIdentical is the tentpole's acceptance proof: for every
// measure, the serialized report produced through the posting-list
// materializer is byte-identical to the one produced by the naive
// per-(group, k) dataset scans.
func TestToJSONByteIdentical(t *testing.T) {
	bundles := map[string]*synth.Bundle{
		"german":  synth.GermanCredit(400, 3),
		"student": synth.Students(395, 2),
		"compas":  synth.COMPAS(500, 1),
	}
	for name, bundle := range bundles {
		a := equivAnalyst(t, bundle, 6)
		for measure, rep := range equivReports(t, a) {
			naive, err := json.Marshal(rep.toJSONNaive())
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := json.Marshal(rep.ToJSON())
			if err != nil {
				t.Fatal(err)
			}
			if string(naive) != string(indexed) {
				t.Errorf("%s/%s: indexed ToJSON differs from naive\nnaive:   %.400s\nindexed: %.400s",
					name, measure, naive, indexed)
			}
			if rep.TotalGroups() > 0 && len(rep.ToJSON().Results) == 0 {
				t.Errorf("%s/%s: report with %d groups serialized no results", name, measure, rep.TotalGroups())
			}
		}
	}
}

// TestInfoAtByteIdentical checks the enriched per-k views directly,
// including the float-for-float equality of bounds and bias magnitudes.
func TestInfoAtByteIdentical(t *testing.T) {
	a := equivAnalyst(t, synth.GermanCredit(400, 7), 6)
	for measure, rep := range equivReports(t, a) {
		for k := rep.KMin; k <= rep.KMax; k++ {
			naive := rep.infoAtNaive(k)
			indexed := rep.InfoAt(k)
			if len(naive) != len(indexed) {
				t.Fatalf("%s k=%d: %d infos indexed, %d naive", measure, k, len(indexed), len(naive))
			}
			for i := range naive {
				ni, xi := naive[i], indexed[i]
				if !ni.Pattern.Equal(xi.Pattern) || ni.Size != xi.Size || ni.TopK != xi.TopK ||
					ni.Required != xi.Required || ni.Bias != xi.Bias {
					t.Fatalf("%s k=%d info %d: indexed %+v != naive %+v", measure, k, i, xi, ni)
				}
			}
		}
	}
}

// TestAnalystCountsMatchNaive checks the public Count/CountTopK facade
// against the naive scans on random patterns over a real schema. The large
// fixture also draws patterns that bind only frequent values, so the
// shortest bound posting list and its top-k prefix, the lists a count
// probes, run to thousands of entries.
func TestAnalystCountsMatchNaive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bundle *synth.Bundle
	}{
		{"students-395", synth.Students(395, 5)},
		{"students-20000", synth.Students(20000, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := equivAnalyst(t, tc.bundle, 8)
			in := a.Input()
			n := len(in.Rows)
			check := func(p Pattern, k int) {
				t.Helper()
				if got, want := a.Count(p), p.Count(in.Rows); got != want {
					t.Fatalf("Count(%v) = %d, naive %d", p, got, want)
				}
				if got, want := a.CountTopK(p, k), p.CountTopK(in.Rows, in.Ranking, k); got != want {
					t.Fatalf("CountTopK(%v, %d) = %d, naive %d", p, k, got, want)
				}
			}
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 200; trial++ {
				p := a.EmptyPattern()
				for attr := 0; attr < in.Space.NumAttrs(); attr++ {
					if rng.Float64() < 0.4 {
						p[attr] = int32(rng.Intn(in.Space.Cards[attr]))
					}
				}
				check(p, 1+rng.Intn(n))
			}

			// Frequent values: held by at least a quarter of the rows.
			const longList = 4096
			if n/4 < longList {
				return
			}
			type value struct {
				attr int
				val  int32
			}
			var frequent []value
			for attr := 0; attr < in.Space.NumAttrs(); attr++ {
				for v := 0; v < in.Space.Cards[attr]; v++ {
					if a.EmptyPattern().With(attr, int32(v)).Count(in.Rows) >= n/4 {
						frequent = append(frequent, value{attr, int32(v)})
					}
				}
			}
			attrs := map[int]bool{}
			for _, fv := range frequent {
				attrs[fv.attr] = true
			}
			if len(attrs) < 3 {
				t.Fatalf("frequent values span %d attributes, want 3", len(attrs))
			}
			long := 0
			for trial := 0; trial < 100; trial++ {
				p := a.EmptyPattern()
				for bound := 2 + rng.Intn(2); p.NumAttrs() < bound; {
					fv := frequent[rng.Intn(len(frequent))]
					p[fv.attr] = fv.val
				}
				k := n/2 + rng.Intn(n/2+1)
				check(p, k)
				// The probe list is the shortest bound posting list.
				shortest, prefix := n, n
				for attr, v := range p {
					if v == Unbound {
						continue
					}
					single := a.EmptyPattern().With(attr, v)
					if c := single.Count(in.Rows); c < shortest {
						shortest, prefix = c, single.CountTopK(in.Rows, in.Ranking, k)
					}
				}
				if shortest >= longList && prefix >= longList {
					long++
				}
			}
			if long < 20 {
				t.Fatalf("only %d of 100 frequent-value patterns probe lists of %d+ entries", long, longList)
			}
		})
	}
}

// TestExplainIndexedIdentical proves Analyst.Explain (index-gathered
// members) equals the scanning explain pipeline bit for bit: the member
// iteration order feeds a seeded sampler, so any ordering slip would show
// up as different Shapley values.
func TestExplainIndexedIdentical(t *testing.T) {
	bundle := synth.GermanCredit(300, 2)
	a, err := New(bundle.Table, &ByColumns{Keys: []ColumnKey{{Column: "credit_score", Descending: true}}})
	if err != nil {
		t.Fatal(err)
	}
	p := a.EmptyPattern().With(0, 0)
	opts := ExplainOptions{Seed: 9, Permutations: 8, BackgroundSize: 16}
	got, err := a.Explain(p, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explain.Explain(a.in, a.dicts, p, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("indexed explanation differs from naive\nindexed: %.400s\nnaive:   %.400s", gj, wj)
	}
}

// TestRepairUnchangedByIndex pins RepairTopK's output across the
// counting-engine PR: repair keeps its inline O(n) position scores and
// must still return the minimally perturbed prefix.
func TestRepairUnchangedByIndex(t *testing.T) {
	bundle := synth.GermanCredit(200, 11)
	a, err := New(bundle.Table, &ByColumns{Keys: []ColumnKey{{Column: "credit_score", Descending: true}}})
	if err != nil {
		t.Fatal(err)
	}
	attr := a.Space().Names[0]
	selected, err := a.RepairTopK(attr, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained repair must return the ranking prefix itself.
	for i, ri := range selected {
		if ri != a.Input().Ranking[i] {
			t.Fatalf("unconstrained repair diverged from ranking at %d: %d != %d", i, ri, a.Input().Ranking[i])
		}
	}
}
