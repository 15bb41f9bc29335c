package exp

import (
	"fmt"

	"rankfair/internal/core"
	"rankfair/internal/synth"
)

// ExtensionSweep benchmarks the extension algorithms beyond the paper's
// body: the incremental exposure detector and the
// incremental upper-bound detector, each against its per-k baseline, as a
// function of the k range — the dimension where incremental search pays off
// most (Figures 8-9's shape).
func (c Config) ExtensionSweep(b *synth.Bundle, attrs int, kMaxes []int) (*Figure, error) {
	in, err := b.InputAttrs(min(attrs, b.NumCatAttrs()))
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Title: fmt.Sprintf("Extensions (%s): incremental vs per-k baseline across the k range (attrs=%d, τs=%d)",
			b.Name, min(attrs, b.NumCatAttrs()), c.Tau),
		Header: []string{"kmax", "measure", "baseline", "incremental", "speedup", "baseline nodes", "incr nodes"},
	}
	for _, kMax := range kMaxes {
		if kMax > b.Table.NumRows() {
			break
		}
		base, opt := c.pair(in, core.Spec{
			Measure: core.MeasureExposure, MinSize: c.Tau, KMin: c.KMin, KMax: kMax, Alpha: c.Alpha,
		}, "IterTDExposure", "ExposureBounds")
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", kMax), "exposure",
			fmtDur(base), fmtDur(opt), speedup(base, opt), fmtNodes(base), fmtNodes(opt),
		})

		ubase, uopt := c.pair(in, core.Spec{
			Measure: core.MeasureGlobalUpper, MinSize: c.Tau, KMin: c.KMin, KMax: kMax, Upper: core.ConstantBounds(c.KMin, kMax, c.LowerBase),
		}, "IterTDGlobalUpper", "GlobalUpperBounds")
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", kMax), "global-upper",
			fmtDur(ubase), fmtDur(uopt), speedup(ubase, uopt), fmtNodes(ubase), fmtNodes(uopt),
		})
	}
	return fig, nil
}
