package exp

import (
	"context"
	"fmt"
	"strings"

	"rankfair/internal/core"
	"rankfair/internal/divergence"
	"rankfair/internal/explain"
	"rankfair/internal/pattern"
	"rankfair/internal/synth"
)

// patternFor builds the single-attribute pattern {attr=label} over a
// bundle's attribute space.
func patternFor(b *synth.Bundle, attr, label string) (pattern.Pattern, error) {
	_, names, _ := b.Table.CatMatrix()
	dicts := b.Table.CatDicts()
	for i, n := range names {
		if n != attr {
			continue
		}
		for c, l := range dicts[i] {
			if l == label {
				p := pattern.Empty(len(names))
				p[i] = int32(c)
				return p, nil
			}
		}
		return nil, fmt.Errorf("exp: attribute %q has no value %q (domain %v)", attr, label, dicts[i])
	}
	return nil, fmt.Errorf("exp: no attribute %q", attr)
}

// ShapleyCase is one Figure 10 column: a detected group, its aggregated
// Shapley values (10a-10c) and the value-distribution comparison of the
// top attribute (10d-10f).
type ShapleyCase struct {
	// Dataset names the bundle.
	Dataset string
	// Group renders the explained pattern.
	Group string
	// Detected reports whether GLOBALBOUNDS (k=49, L=40, τs=50) detected
	// the group, as in the paper's setup.
	Detected bool
	// Shapley is the Figure 10a-10c table (top attributes by aggregated
	// Shapley value).
	Shapley *Figure
	// Distribution is the rendered Figure 10d-10f comparison.
	Distribution string
}

// shapleyTarget names each dataset's case-study group from Section VI-C.
var shapleyTargets = map[string][2]string{
	"student": {"Medu", "primary"},              // p1: mother's education = primary
	"compas":  {"age", "<35"},                   // p2: age younger than 35
	"german":  {"status_checking", "[0,200)DM"}, // p3: checking account 0..200 DM
}

// ShapleyCases reproduces Figure 10: for each dataset, detect groups with
// GLOBALBOUNDS at k=49 with L=40 (the paper's setting), explain the
// case-study group with aggregated Shapley values, and compare the top
// attribute's value distribution between the top-k and the group.
func (c Config) ShapleyCases(bundles []*synth.Bundle) ([]*ShapleyCase, error) {
	var out []*ShapleyCase
	for _, b := range bundles {
		target, ok := shapleyTargets[b.Name]
		if !ok {
			continue
		}
		p, err := patternFor(b, target[0], target[1])
		if err != nil {
			return nil, err
		}
		in, err := b.Input()
		if err != nil {
			return nil, err
		}
		k := 49
		if k > len(in.Rows) {
			k = len(in.Rows) / 2
		}
		res, err := core.Search(context.Background(), in, core.Spec{Measure: core.MeasureGlobal, MinSize: c.Tau, KMin: k, KMax: k, Lower: []int{40}})
		if err != nil {
			return nil, err
		}
		detected := false
		for _, g := range res.At(k) {
			if g.SubsetOf(p) { // the group or a generalization of it is reported
				detected = true
				break
			}
		}
		expl, err := explain.Explain(in, b.Table.CatDicts(), p, k, explain.Options{
			Seed: c.Seed, Permutations: 24, BackgroundSize: 48,
		})
		if err != nil {
			return nil, err
		}
		fig := &Figure{
			Title:  fmt.Sprintf("Fig. 10 (%s): aggregated Shapley values of group %s (k=%d, n=%d)", b.Name, expl.Pattern.Format(in.Space, b.Table.CatDicts()), k, expl.GroupSize),
			Header: []string{"attribute", "aggregated Shapley", "|relative to max|"},
		}
		maxAbs := absf(expl.Shapley[0].Value)
		for _, s := range expl.Shapley {
			rel := "-"
			if maxAbs > 0 {
				rel = fmt.Sprintf("%.1f%%", 100*absf(s.Value)/maxAbs)
			}
			fig.Rows = append(fig.Rows, []string{s.Name, fmt.Sprintf("%+.3f", s.Value), rel})
		}
		out = append(out, &ShapleyCase{
			Dataset:      b.Name,
			Group:        expl.Pattern.Format(in.Space, b.Table.CatDicts()),
			Detected:     detected,
			Shapley:      fig,
			Distribution: expl.Comparison.Render(),
		})
	}
	return out, nil
}

// CaseStudy reproduces the Section VI-D comparison with the divergence
// method of [27]: Student data restricted to its first four attributes
// (school, sex, age, address), kmin=kmax=10, τs=50 (support 0.13), L=10 for
// global bounds and α=0.8 for proportional representation.
func (c Config) CaseStudy(student *synth.Bundle) (*Figure, error) {
	const attrs = 4
	in, err := student.InputAttrs(attrs)
	if err != nil {
		return nil, err
	}
	dicts := student.Table.CatDicts()[:attrs]
	k := 10
	render := func(ps []pattern.Pattern) string {
		if len(ps) == 0 {
			return "(none)"
		}
		var parts []string
		for _, p := range ps {
			parts = append(parts, p.Format(in.Space, dicts))
		}
		return strings.Join(parts, " ")
	}

	gRes, err := core.Search(context.Background(), in, core.Spec{Measure: core.MeasureGlobal, MinSize: c.Tau, KMin: k, KMax: k, Lower: []int{10}})
	if err != nil {
		return nil, err
	}
	pRes, err := core.Search(context.Background(), in, core.Spec{Measure: core.MeasureProp, MinSize: c.Tau, KMin: k, KMax: k, Alpha: c.Alpha})
	if err != nil {
		return nil, err
	}
	support := float64(c.Tau) / float64(len(in.Rows))
	dRes, err := divergence.Find(in, divergence.Params{MinSupport: support, K: k})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		Title: fmt.Sprintf("Sec. VI-D case study (%s, %d attrs, k=%d, τs=%d ⇒ support %.2f)",
			student.Name, attrs, k, c.Tau, support),
		Header: []string{"method", "groups", "output"},
	}
	fig.Rows = append(fig.Rows, []string{"PropBounds (α=0.8)", fmt.Sprintf("%d", len(pRes.At(k))), render(pRes.At(k))})
	fig.Rows = append(fig.Rows, []string{"GlobalBounds (L=10)", fmt.Sprintf("%d", len(gRes.At(k))), render(gRes.At(k))})

	topDiv := dRes.Groups
	if len(topDiv) > 5 {
		topDiv = topDiv[:5]
	}
	var topStr []string
	for _, g := range topDiv {
		topStr = append(topStr, fmt.Sprintf("%s (δ=%+.3f)", g.Pattern.Format(in.Space, dicts), g.Divergence))
	}
	fig.Rows = append(fig.Rows, []string{
		"Divergence [27]",
		fmt.Sprintf("%d", len(dRes.Groups)),
		"top-5 by divergence: " + strings.Join(topStr, " "),
	})
	// The paper reports where single-attribute groups land in the
	// divergence ranking ({sex=M} at position 17 in their run).
	for _, g := range gRes.At(k) {
		if g.NumAttrs() == 1 {
			fig.Rows = append(fig.Rows, []string{
				"  divergence rank of " + g.Format(in.Space, dicts), fmt.Sprintf("%d", dRes.RankOf(g)), "",
			})
		}
	}
	return fig, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
