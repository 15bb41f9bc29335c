package rankfair

import (
	"sort"
	"strconv"

	"rankfair/internal/core"
)

// The pre-index report pipeline, kept as the differential-test and
// benchmark baseline of the materialized one: dataset scans per
// (group, k) instead of count vectors built once per group.

// toJSONNaive is ToJSON over the naive pipeline.
func (r *Report) toJSONNaive() *ReportJSON {
	out := &ReportJSON{
		Measure:       r.measureName(),
		KMin:          r.KMin,
		KMax:          r.KMax,
		Attributes:    append([]string(nil), r.analyst.in.Space.Names...),
		NodesExamined: r.Stats.NodesExamined,
		FullSearches:  r.Stats.FullSearches,
		Stats:         r.SearchStatsJSON(),
	}
	for k := r.KMin; k <= r.KMax; k++ {
		if kg := r.kGroupsNaive(k); len(kg.Groups) > 0 {
			out.Results = append(out.Results, kg)
		}
	}
	return out
}

// infoAtNaive is the pre-index InfoAt: one full dataset scan per group for
// s_D(p), one top-k scan per group for s_{R_k(D)}(p), and key rebuilding
// inside the sort comparator.
func (r *Report) infoAtNaive(k int) []GroupInfo {
	groups := r.At(k)
	if groups == nil {
		return nil
	}
	in := r.analyst.in
	infos := make([]GroupInfo, len(groups))
	for i, g := range groups {
		sD := g.Count(in.Rows)
		cnt := g.CountTopK(in.Rows, in.Ranking, k)
		req := r.boundNaive(sD, k)
		var bias float64
		switch {
		case r.upper():
			bias = float64(cnt) - req
		case r.spec.Measure == MeasureExposure:
			bias = req - core.PatternExposure(in, g, k)
		default:
			bias = req - float64(cnt)
		}
		infos[i] = GroupInfo{Pattern: g, Size: sD, TopK: cnt, Required: req, Bias: bias}
	}
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].Bias != infos[b].Bias {
			return infos[a].Bias > infos[b].Bias
		}
		if infos[a].Size != infos[b].Size {
			return infos[a].Size > infos[b].Size
		}
		return infos[a].Pattern.Key() < infos[b].Pattern.Key()
	})
	return infos
}

// boundNaive is the pre-index bound computation: for exposure reports it
// re-sums the position series on every call (O(k) per call, O(K²) per
// report).
func (r *Report) boundNaive(sD, k int) float64 {
	if r.spec.Measure != MeasureExposure {
		return r.bound(sD, k, nil)
	}
	n := float64(len(r.analyst.in.Rows))
	ek := 0.0
	for i := 1; i <= k; i++ {
		ek += core.PositionExposure(i)
	}
	return r.spec.Alpha * float64(sD) * ek / n
}

// kGroupsNaive is the pre-index per-k serialization: label maps and keys
// rebuilt per (group, k).
func (r *Report) kGroupsNaive(k int) KGroupsJSON {
	infos := r.infoAtNaive(k)
	if len(infos) == 0 {
		return KGroupsJSON{}
	}
	kg := KGroupsJSON{K: k, Groups: make([]GroupJSON, len(infos))}
	for i, info := range infos {
		assigns := make(map[string]string, info.Pattern.NumAttrs())
		for _, a := range info.Pattern.Attrs() {
			label := strconv.Itoa(int(info.Pattern[a]))
			if r.analyst.dicts != nil && a < len(r.analyst.dicts) && int(info.Pattern[a]) < len(r.analyst.dicts[a]) {
				label = r.analyst.dicts[a][info.Pattern[a]]
			}
			assigns[r.analyst.in.Space.Names[a]] = label
		}
		kg.Groups[i] = GroupJSON{
			Pattern:  assigns,
			Key:      info.Pattern.Key(),
			Size:     info.Size,
			TopK:     info.TopK,
			Required: info.Required,
			Bias:     info.Bias,
		}
	}
	return kg
}
