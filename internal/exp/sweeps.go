package exp

import (
	"context"
	"fmt"

	"rankfair/internal/core"
	"rankfair/internal/synth"
)

// pairAt runs baseline and optimized detection on one input and parameter
// setting, for the selected fairness measure.
func (c Config) pairAt(in *core.Input, tau, kMin, kMax int, proportional bool) (base, opt Measurement) {
	s := core.Spec{Measure: core.MeasureGlobal, MinSize: tau, KMin: kMin, KMax: kMax, Lower: c.lower(kMin, kMax)}
	if proportional {
		s = core.Spec{Measure: core.MeasureProp, MinSize: tau, KMin: kMin, KMax: kMax, Alpha: c.Alpha}
	}
	return c.pair(in, s, "IterTD", optName(proportional))
}

// pair measures s on the ITERTD baseline (named baseName), then on the
// incremental search (named incName).
func (c Config) pair(in *core.Input, s core.Spec, baseName, incName string) (base, opt Measurement) {
	b := s
	b.Baseline = true
	return runDetector(baseName, c.Timeout, in, b), runDetector(incName, c.Timeout, in, s)
}

func measureName(proportional bool) string {
	if proportional {
		return "proportional representation"
	}
	return "global bounds"
}

func optName(proportional bool) string {
	if proportional {
		return "PropBounds"
	}
	return "GlobalBounds"
}

// AttrSweep reproduces Figures 4 (global) and 5 (proportional): runtime as
// a function of the number of attributes, from 3 up to the dataset's
// attribute count (or maxAttrs if smaller).
func (c Config) AttrSweep(b *synth.Bundle, proportional bool, maxAttrs int) (*Figure, error) {
	total := b.NumCatAttrs()
	if maxAttrs > 0 && maxAttrs < total {
		total = maxAttrs
	}
	figNo := 4
	if proportional {
		figNo = 5
	}
	fig := &Figure{
		Title: fmt.Sprintf("Fig. %d (%s): runtime vs number of attributes — %s (τs=%d, k∈[%d,%d])",
			figNo, b.Name, measureName(proportional), c.Tau, c.KMin, c.KMax),
		Header: []string{"attrs", "IterTD", optName(proportional), "speedup", "IterTD nodes", "opt nodes", "groups"},
	}
	for m := 3; m <= total; m++ {
		in, err := b.InputAttrs(m)
		if err != nil {
			return nil, err
		}
		base, opt := c.pairAt(in, c.Tau, c.KMin, c.KMax, proportional)
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", m),
			fmtDur(base), fmtDur(opt), speedup(base, opt),
			fmtNodes(base), fmtNodes(opt), fmtGroups(opt),
		})
		if base.TimedOut && opt.TimedOut {
			break // both sides censored: larger settings only get worse
		}
	}
	return fig, nil
}

// ThresholdSweep reproduces Figures 6 (global) and 7 (proportional):
// runtime as a function of the size threshold τs from 10 to 100.
func (c Config) ThresholdSweep(b *synth.Bundle, proportional bool, attrs int) (*Figure, error) {
	in, err := b.InputAttrs(attrs)
	if err != nil {
		return nil, err
	}
	figNo := 6
	if proportional {
		figNo = 7
	}
	fig := &Figure{
		Title: fmt.Sprintf("Fig. %d (%s): runtime vs size threshold τs — %s (attrs=%d, k∈[%d,%d])",
			figNo, b.Name, measureName(proportional), attrs, c.KMin, c.KMax),
		Header: []string{"τs", "IterTD", optName(proportional), "speedup", "IterTD nodes", "opt nodes", "groups"},
	}
	for tau := 10; tau <= 100; tau += 10 {
		base, opt := c.pairAt(in, tau, c.KMin, c.KMax, proportional)
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", tau),
			fmtDur(base), fmtDur(opt), speedup(base, opt),
			fmtNodes(base), fmtNodes(opt), fmtGroups(opt),
		})
	}
	return fig, nil
}

// KRangeSweep reproduces Figures 8 (global) and 9 (proportional): runtime
// as a function of the k range, kmin fixed at the configured value and kmax
// swept across kMaxes (the paper uses up to 1000 for COMPAS and up to 350
// for Student and German Credit).
func (c Config) KRangeSweep(b *synth.Bundle, proportional bool, attrs int, kMaxes []int) (*Figure, error) {
	in, err := b.InputAttrs(attrs)
	if err != nil {
		return nil, err
	}
	figNo := 8
	if proportional {
		figNo = 9
	}
	fig := &Figure{
		Title: fmt.Sprintf("Fig. %d (%s): runtime vs range of k — %s (attrs=%d, τs=%d, kmin=%d)",
			figNo, b.Name, measureName(proportional), attrs, c.Tau, c.KMin),
		Header: []string{"kmax", "IterTD", optName(proportional), "speedup", "IterTD nodes", "opt nodes", "groups"},
	}
	for _, kMax := range kMaxes {
		if kMax > b.Table.NumRows() {
			break
		}
		base, opt := c.pairAt(in, c.Tau, c.KMin, kMax, proportional)
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", kMax),
			fmtDur(base), fmtDur(opt), speedup(base, opt),
			fmtNodes(base), fmtNodes(opt), fmtGroups(opt),
		})
	}
	return fig, nil
}

// NodesExamined reproduces the Section VI-B text comparison: the percentage
// reduction in patterns examined by the optimized algorithms relative to
// ITERTD at the default parameters (the paper reports gains of up to
// 39.35%/56.87%/29.27% for global bounds and 39.60%/20.49%/56.83% for
// proportional representation on COMPAS/Student/German Credit).
func (c Config) NodesExamined(bundles []*synth.Bundle, attrs int) (*Figure, error) {
	fig := &Figure{
		Title:  fmt.Sprintf("Sec. VI-B: patterns examined, baseline vs optimized (attrs=%d, τs=%d, k∈[%d,%d], α=%.2f)", attrs, c.Tau, c.KMin, c.KMax, c.Alpha),
		Header: []string{"dataset", "measure", "IterTD nodes", "optimized nodes", "reduction"},
	}
	for _, b := range bundles {
		in, err := b.InputAttrs(min(attrs, b.NumCatAttrs()))
		if err != nil {
			return nil, err
		}
		for _, proportional := range []bool{false, true} {
			base, opt := c.pairAt(in, c.Tau, c.KMin, c.KMax, proportional)
			red := "-"
			if !base.TimedOut && !opt.TimedOut && base.Nodes > 0 {
				red = fmt.Sprintf("%.2f%%", 100*float64(base.Nodes-opt.Nodes)/float64(base.Nodes))
			}
			fig.Rows = append(fig.Rows, []string{
				b.Name, measureName(proportional), fmtNodes(base), fmtNodes(opt), red,
			})
		}
	}
	return fig, nil
}

// ResultSizeSurvey backs the Section III observation that in 97.58% of the
// examined settings the number of reported groups per k stays below 100.
// It sweeps a parameter grid and reports the fraction of per-k result sets
// under the threshold.
func (c Config) ResultSizeSurvey(bundles []*synth.Bundle, attrs int) (*Figure, error) {
	fig := &Figure{
		Title:  "Sec. III: fraction of per-k result sets with fewer than 100 groups",
		Header: []string{"dataset", "measure", "settings", "k-slices", "<100 groups", "fraction"},
	}
	taus := []int{25, 50, 100}
	alphas := []float64{0.6, 0.8, 1.0}
	for _, b := range bundles {
		in, err := b.InputAttrs(min(attrs, b.NumCatAttrs()))
		if err != nil {
			return nil, err
		}
		var gSlices, gSmall, gSettings int
		for _, tau := range taus {
			res, err := core.Search(context.Background(), in, core.Spec{
				Measure: core.MeasureGlobal, MinSize: tau, KMin: c.KMin, KMax: c.KMax, Lower: c.lower(c.KMin, c.KMax),
			})
			if err != nil {
				return nil, err
			}
			gSettings++
			for _, groups := range res.Groups {
				gSlices++
				if len(groups) < 100 {
					gSmall++
				}
			}
		}
		fig.Rows = append(fig.Rows, []string{
			b.Name, "global bounds", fmt.Sprintf("%d", gSettings),
			fmt.Sprintf("%d", gSlices), fmt.Sprintf("%d", gSmall),
			fmt.Sprintf("%.2f%%", 100*float64(gSmall)/float64(max(gSlices, 1))),
		})
		var pSlices, pSmall, pSettings int
		for _, alpha := range alphas {
			res, err := core.Search(context.Background(), in, core.Spec{
				Measure: core.MeasureProp, MinSize: c.Tau, KMin: c.KMin, KMax: c.KMax, Alpha: alpha,
			})
			if err != nil {
				return nil, err
			}
			pSettings++
			for _, groups := range res.Groups {
				pSlices++
				if len(groups) < 100 {
					pSmall++
				}
			}
		}
		fig.Rows = append(fig.Rows, []string{
			b.Name, "proportional", fmt.Sprintf("%d", pSettings),
			fmt.Sprintf("%d", pSlices), fmt.Sprintf("%d", pSmall),
			fmt.Sprintf("%.2f%%", 100*float64(pSmall)/float64(max(pSlices, 1))),
		})
	}
	return fig, nil
}
