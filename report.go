package rankfair

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rankfair/internal/core"
	"rankfair/internal/count"
)

// GroupInfo enriches a detected group with the quantities behind its
// detection, supporting the output organization the paper recommends
// ("rank the groups by their overall size in the data or by the bias in
// their representation", Section III).
type GroupInfo struct {
	// Pattern is the detected group.
	Pattern Pattern
	// Size is s_D(p), the group's size in the dataset.
	Size int
	// TopK is s_{R_k(D)}(p), the group's size among the top-k.
	TopK int
	// Required is the bound the group violates at k: the lower bound for
	// under-representation reports, the upper bound for over-representation
	// reports.
	Required float64
	// Bias is the violation magnitude: Required-TopK for lower bounds,
	// TopK-Required for upper bounds. Larger means more biased.
	Bias float64
}

// groupCounts is one distinct group's materialized count vector: its size
// in the dataset plus, for every k in the report's range, its top-k count
// (and, for exposure reports, its top-k exposure). Built in one pass per
// group from the rank-indexed match list — counts at k+1 derive from
// counts at k — instead of a dataset scan per (group, k). The rendered
// JSON labels are precomputed here too: a group typically appears at many
// prefixes, and building its attribute→label map per (group, k) dominated
// warm-report serialization.
type groupCounts struct {
	sD     int
	counts []int32   // counts[k-KMin] = s_{R_k(D)}(p)
	exps   []float64 // exposure reports only: exps[k-KMin] = exposure_k(p)
	// labels maps attribute names to value labels (GroupJSON.Pattern);
	// shared read-only across every k-level entry of the group. pairs is
	// the same assignment as sorted key/value pairs, the iteration order
	// the streaming JSON encoder needs (encoding/json sorts map keys).
	labels map[string]string
	pairs  [][2]string
}

// levelEntry pairs one group of a k-level result set with its canonical
// key and count vectors, aligned index-for-index with Result.Groups so
// InfoAt never rebuilds keys or re-probes the map per (group, k).
type levelEntry struct {
	key string
	gc  *groupCounts
}

// exposurePrefixLocked returns the cumulative exposure table E with
// E[k] = sum_{i=1..k} PositionExposure(i), building it on first use.
// Report.bound previously re-summed the series on every call, making
// serialization O(K²) in the exposure weights alone. Callers hold matMu.
func (r *Report) exposurePrefixLocked() []float64 {
	if r.expPrefix == nil {
		w := make([]float64, r.KMax)
		pre := make([]float64, r.KMax+1)
		for i := 0; i < r.KMax; i++ {
			w[i] = core.PositionExposure(i + 1)
			pre[i+1] = pre[i] + w[i]
		}
		r.expWeights, r.expPrefix = w, pre
	}
	return r.expPrefix
}

func (r *Report) exposurePrefix() []float64 {
	r.matMu.Lock()
	defer r.matMu.Unlock()
	return r.exposurePrefixLocked()
}

// materialized returns the per-level (key, counts) slices for the whole
// report, building them on first use: one index probe per distinct group
// covers the whole [KMin, KMax] range, so InfoAt and ToJSON are
// incremental across k instead of rescanning the dataset per (group, k),
// and every group's key string is built exactly once per report.
func (r *Report) materialized() [][]levelEntry {
	r.matMu.Lock()
	defer r.matMu.Unlock()
	if r.levels != nil {
		return r.levels
	}
	ix := r.analyst.index()
	var w []float64
	if r.spec.Measure == MeasureExposure {
		r.exposurePrefixLocked()
		w = r.expWeights
	}
	mat := make(map[string]*groupCounts)
	levels := make([][]levelEntry, len(r.Groups))
	for li, ks := range r.Groups {
		if len(ks) == 0 {
			continue
		}
		level := make([]levelEntry, len(ks))
		for gi, g := range ks {
			key := g.Key()
			gc, ok := mat[key]
			if !ok {
				ranks := ix.MatchRanks(g)
				gc = &groupCounts{sD: len(ranks), counts: count.CountsOver(ranks, r.KMin, r.KMax)}
				if r.spec.Measure == MeasureExposure {
					gc.exps = count.ExposuresOver(ranks, w, r.KMin, r.KMax)
				}
				gc.labels, gc.pairs = r.groupLabels(g)
				mat[key] = gc
			}
			level[gi] = levelEntry{key: key, gc: gc}
		}
		levels[li] = level
	}
	r.levels = levels
	return r.levels
}

// bound computes the violated bound for a pattern of size sD at prefix k.
// expPrefix is the cumulative exposure table, consulted only by exposure
// reports; callers fetch it once per batch (exposurePrefix) rather than
// per (group, k), keeping the hot serialization loop free of lock
// round-trips.
func (r *Report) bound(sD, k int, expPrefix []float64) float64 {
	n := float64(len(r.analyst.in.Rows))
	s := &r.spec
	switch s.Measure {
	case MeasureGlobal, MeasureLowerSpecific:
		return float64(s.Lower[k-s.KMin])
	case MeasureGlobalUpper, MeasureUpperGeneral:
		return float64(s.Upper[k-s.KMin])
	case MeasureProp:
		return s.Alpha * float64(sD) * float64(k) / n
	case MeasureExposure:
		return s.Alpha * float64(sD) * expPrefix[k] / n
	default:
		return s.Beta * float64(sD) * float64(k) / n
	}
}

// upper reports whether the report's groups exceed an upper bound (bias
// TopK-Required) rather than fall below a lower one.
func (r *Report) upper() bool {
	switch r.spec.Measure {
	case MeasureGlobalUpper, MeasurePropUpper, MeasureUpperGeneral:
		return true
	}
	return false
}

// groupLabels renders a group's attribute→label assignment once per
// distinct group: the map feeds GroupJSON.Pattern (shared read-only by
// every k level the group appears at), the sorted pairs feed the streaming
// encoder. Duplicate attribute names collapse exactly as they do in the
// map, so the pair view and the map marshal identically.
func (r *Report) groupLabels(g Pattern) (map[string]string, [][2]string) {
	attrs := g.Attrs()
	labels := make(map[string]string, len(attrs))
	for _, a := range attrs {
		label := strconv.Itoa(int(g[a]))
		if r.analyst.dicts != nil && a < len(r.analyst.dicts) && int(g[a]) < len(r.analyst.dicts[a]) {
			label = r.analyst.dicts[a][g[a]]
		}
		labels[r.analyst.in.Space.Names[a]] = label
	}
	pairs := make([][2]string, 0, len(labels))
	for name, label := range labels {
		pairs = append(pairs, [2]string{name, label})
	}
	slices.SortFunc(pairs, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	return labels, pairs
}

// keyedInfo pairs one enriched group with its materialized level entry, so
// serialization reads precomputed keys and label maps instead of
// rebuilding them per (group, k).
type keyedInfo struct {
	info GroupInfo
	le   levelEntry
}

// enrichedAt computes the enriched result set at k from the materialized
// per-group vectors, sorted by descending bias (ties: larger groups first,
// then deterministic key order). It returns nil when k is out of range.
func (r *Report) enrichedAt(k int) []keyedInfo {
	groups := r.At(k)
	if groups == nil {
		return nil
	}
	level := r.materialized()[k-r.KMin]
	exposure, upper := r.spec.Measure == MeasureExposure, r.upper()
	var expPrefix []float64
	if exposure {
		expPrefix = r.exposurePrefix()
	}
	items := make([]keyedInfo, len(groups))
	for i, g := range groups {
		le := level[i]
		sD := le.gc.sD
		cnt := int(le.gc.counts[k-r.KMin])
		req := r.bound(sD, k, expPrefix)
		var bias float64
		switch {
		case upper:
			bias = float64(cnt) - req
		case exposure:
			bias = req - le.gc.exps[k-r.KMin]
		default:
			bias = req - float64(cnt)
		}
		items[i] = keyedInfo{
			info: GroupInfo{Pattern: g, Size: sD, TopK: cnt, Required: req, Bias: bias},
			le:   le,
		}
	}
	slices.SortFunc(items, func(a, b keyedInfo) int {
		if a.info.Bias != b.info.Bias {
			if a.info.Bias > b.info.Bias {
				return -1
			}
			return 1
		}
		if a.info.Size != b.info.Size {
			return b.info.Size - a.info.Size
		}
		return strings.Compare(a.le.key, b.le.key)
	})
	return items
}

// InfoAt returns the result set at k enriched with sizes, bounds and bias
// magnitudes, sorted by descending bias (ties: larger groups first, then
// deterministic key order). Counts come from the report's materialized
// per-group vectors (see materialized); outputs are byte-identical to the
// naive dataset scans they replaced.
func (r *Report) InfoAt(k int) []GroupInfo {
	items := r.enrichedAt(k)
	if items == nil {
		return nil
	}
	infos := make([]GroupInfo, len(items))
	for i := range items {
		infos[i] = items[i].info
	}
	return infos
}

// Measure returns the report's measure name as serialized in ReportJSON
// (e.g. "proportional-lower"). It identifies which bound the report's
// groups violate.
func (r *Report) Measure() string { return r.measureName() }

// Describe renders one enriched group as a human-readable line, e.g.
//
//	{sex=F, address=R}: 61 tuples, 2 of top-20 (bound 4.9, bias 2.9)
func (r *Report) Describe(info GroupInfo, k int) string {
	return fmt.Sprintf("%s: %d tuples, %d of top-%d (bound %.1f, bias %.1f)",
		r.Format(info.Pattern), info.Size, info.TopK, k, info.Required, info.Bias)
}

// SuggestLowerBounds proposes a non-decreasing lower-bound staircase for
// the global measure from a target share: L_k = floor(share·k), clamped to at
// least 1 once share·k reaches 1. It addresses the paper's future-work item
// of automatic threshold suggestion with the simplest useful policy: "every
// substantial group should hold at least `share` of every prefix".
func SuggestLowerBounds(kMin, kMax int, share float64) ([]int, error) {
	if kMax < kMin || kMin < 1 {
		return nil, fmt.Errorf("rankfair: invalid k range [%d,%d]", kMin, kMax)
	}
	if share <= 0 || share > 1 {
		return nil, fmt.Errorf("rankfair: share %v outside (0,1]", share)
	}
	out := make([]int, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		out[k-kMin] = int(share * float64(k))
	}
	return out, nil
}
