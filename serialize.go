package rankfair

import (
	"fmt"
	"io"

	"rankfair/internal/core"
	"rankfair/internal/pattern"
)

// Measure names for AuditParams.Measure: the vocabulary of the rankfaird
// audit API and of the biasdetect -measure flag.
const (
	MeasureGlobal      = core.MeasureGlobal
	MeasureProp        = core.MeasureProp
	MeasureGlobalUpper = core.MeasureGlobalUpper
	MeasurePropUpper   = core.MeasurePropUpper
	MeasureExposure    = core.MeasureExposure
	// MeasureLowerSpecific and MeasureUpperGeneral are the alternate
	// report semantics of Section III: the most specific groups below the
	// lower bounds, the most general groups above the upper bounds. Their
	// reports' Measure() names are the bound's: global-lower, global-upper.
	MeasureLowerSpecific = core.MeasureLowerSpecific
	MeasureUpperGeneral  = core.MeasureUpperGeneral
)

// Measures lists every measure name accepted by AuditParams, in a stable
// order.
func Measures() []string {
	return []string{MeasureGlobal, MeasureProp, MeasureGlobalUpper, MeasurePropUpper, MeasureExposure,
		MeasureLowerSpecific, MeasureUpperGeneral}
}

// AuditParams is the measure-tagged, JSON-serializable parameter set of one
// detection run: the wire format shared by the rankfaird audit service and
// any tooling that persists or replays detection requests, and the one
// argument of Analyst.Detect. Its Validate and CacheKey methods let servers
// reject bad requests before queueing work and key result caches.
type AuditParams = core.Spec

// MaxWorkers bounds AuditParams.Workers; it exists so a malformed request
// cannot make the daemon spawn an absurd number of goroutines.
const MaxWorkers = core.MaxWorkers

// ReportJSON is the serialized form of a detection report, suitable for
// dashboards and downstream tooling. Groups carry both machine-readable
// keys and human-readable attribute/label maps, enriched with the sizes
// and bias magnitudes of InfoAt.
type ReportJSON struct {
	// Measure names the fairness measure that produced the report.
	Measure string `json:"measure"`
	// KMin, KMax delimit the examined range of k.
	KMin int `json:"kmin"`
	KMax int `json:"kmax"`
	// Attributes lists the pattern space, in order.
	Attributes []string `json:"attributes"`
	// NodesExamined and FullSearches mirror the work statistics.
	NodesExamined int64 `json:"nodes_examined"`
	FullSearches  int   `json:"full_searches"`
	// Results holds one entry per k with a non-empty (or changed) result
	// set; consumers index by K.
	Results []KGroupsJSON `json:"results"`
	// Stats carries the run's search observability counters and, when the
	// serving layer fills them in, per-phase wall-clock timings. Nil when
	// the run disabled stats collection; the key is then omitted, keeping
	// the rest of the document unchanged.
	Stats *SearchStatsJSON `json:"stats,omitempty"`
}

// SearchStatsJSON is the serialized form of core.SearchStats plus optional
// phase timings. Unlike NodesExamined/FullSearches these counters record
// engine internals, so equivalence comparisons must strip the "stats" key
// before diffing documents. SearchStats.Workers
// is deliberately NOT serialized: every counter here is identical for
// every worker count, and keeping the document fan-out-independent is what
// lets audits differing only in Workers share one cache entry (the same
// reason AuditParams.CacheKey omits Workers). In-process consumers read
// the width from Report.Search.Workers.
type SearchStatsJSON struct {
	Strategy             string            `json:"strategy"`
	NodesExpanded        int64             `json:"nodes_expanded"`
	PrunedSize           int64             `json:"pruned_size"`
	PrunedBound          int64             `json:"pruned_bound"`
	PrunedDominated      int64             `json:"pruned_dominated"`
	PostingIntersections int64             `json:"posting_intersections"`
	CountOnlyPasses      int64             `json:"count_only_passes"`
	LazyScatters         int64             `json:"lazy_scatters"`
	BitmapPasses         int64             `json:"bitmap_passes"`
	SlicePasses          int64             `json:"slice_passes"`
	FrontierByLevel      []int64           `json:"frontier_by_level,omitempty"`
	PhaseMS              *PhaseTimingsJSON `json:"phase_ms,omitempty"`
}

// PhaseTimingsJSON holds per-phase wall-clock milliseconds of one audit,
// filled by the serving layer (the library leaves it nil).
type PhaseTimingsJSON struct {
	Analyst   float64 `json:"analyst"`
	Search    float64 `json:"search"`
	Serialize float64 `json:"serialize"`
}

// KGroupsJSON is one k's result set.
type KGroupsJSON struct {
	K      int         `json:"k"`
	Groups []GroupJSON `json:"groups"`
}

// GroupJSON is one detected group.
type GroupJSON struct {
	// Pattern maps attribute names to value labels (raw codes when the
	// analyst has no dictionaries).
	Pattern map[string]string `json:"pattern"`
	// Key is the canonical pattern encoding (pattern.ParseKey inverts it).
	Key string `json:"key"`
	// Size, TopK, Required and Bias mirror GroupInfo.
	Size     int     `json:"size"`
	TopK     int     `json:"top_k"`
	Required float64 `json:"required"`
	Bias     float64 `json:"bias"`
}

// measureName names the bound the report's groups violate. The alternate
// Section III semantics share the name of the bound they report against.
func (r *Report) measureName() string {
	switch r.spec.Measure {
	case MeasureGlobal, MeasureLowerSpecific:
		return "global-lower"
	case MeasureProp:
		return "proportional-lower"
	case MeasureGlobalUpper, MeasureUpperGeneral:
		return "global-upper"
	case MeasurePropUpper:
		return "proportional-upper"
	case MeasureExposure:
		return "exposure"
	default:
		return "unknown"
	}
}

// ToJSON converts the report to its serializable form. Every per-group
// constant — canonical key, attribute→label map, size — is precomputed
// once per distinct group (see groupCounts), so a k level costs struct
// copies plus the per-k numbers.
// Returned Pattern maps are independent copies, safe for callers to
// mutate, exactly as before the per-group precomputation.
func (r *Report) ToJSON() *ReportJSON {
	out := r.toJSONShared()
	// Unshare the cached label maps: one clone per (group, k) entry keeps
	// the public contract (mutating one entry affects nothing else) while
	// the hot internal path (WriteJSON) keeps the shared maps.
	for _, kg := range out.Results {
		for i := range kg.Groups {
			shared := kg.Groups[i].Pattern
			cloned := make(map[string]string, len(shared))
			for k, v := range shared {
				cloned[k] = v
			}
			kg.Groups[i].Pattern = cloned
		}
	}
	return out
}

// toJSONShared builds the serializable form with GroupJSON.Pattern
// aliasing the report's cached per-group label maps. Internal consumers
// (the streaming encoder) only read them.
func (r *Report) toJSONShared() *ReportJSON {
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
		items := r.enrichedAt(k)
		if len(items) == 0 {
			continue
		}
		kg := KGroupsJSON{K: k, Groups: make([]GroupJSON, len(items))}
		for i, it := range items {
			kg.Groups[i] = GroupJSON{
				Pattern:  it.le.gc.labels,
				Key:      it.le.key,
				Size:     it.info.Size,
				TopK:     it.info.TopK,
				Required: it.info.Required,
				Bias:     it.info.Bias,
			}
		}
		out.Results = append(out.Results, kg)
	}
	return out
}

// SearchStatsJSON converts the run's search counters to their serialized
// form, the "stats" object of the report document. It returns nil when the
// run disabled stats collection.
func (r *Report) SearchStatsJSON() *SearchStatsJSON {
	s := r.Search
	if s == nil {
		return nil
	}
	out := &SearchStatsJSON{
		Strategy:             s.Strategy,
		NodesExpanded:        s.NodesExpanded,
		PrunedSize:           s.PrunedSize,
		PrunedBound:          s.PrunedBound,
		PrunedDominated:      s.PrunedDominated,
		PostingIntersections: s.PostingIntersections,
		CountOnlyPasses:      s.CountOnlyPasses,
		LazyScatters:         s.LazyScatters,
		BitmapPasses:         s.BitmapPasses,
		SlicePasses:          s.SlicePasses,
	}
	if len(s.FrontierByLevel) > 0 {
		out.FrontierByLevel = append([]int64(nil), s.FrontierByLevel...)
	}
	return out
}

// WriteJSON writes the report as indented JSON: one pooled buffer, one
// Write. The hand-rolled encoder (appendReportJSON) produces output
// byte-identical to encoding/json's indented encoder — including HTML
// escaping, map-key ordering and float formatting — without reflection or
// per-call buffer growth; TestAppendReportJSONMatchesEncodingJSON holds it
// to that contract.
func (r *Report) WriteJSON(w io.Writer) error {
	buf := encBuf.Get().(*[]byte)
	out := appendReportJSON((*buf)[:0], r.toJSONShared())
	out = append(out, '\n') // json.Encoder.Encode terminates with a newline
	_, err := w.Write(out)
	*buf = out[:0]
	encBuf.Put(buf)
	return err
}

// ParseGroupKey decodes a GroupJSON key back into a Pattern over the
// analyst's space, validating width and value ranges.
func (a *Analyst) ParseGroupKey(key string) (Pattern, error) {
	p, err := pattern.ParseKey(key)
	if err != nil {
		return nil, err
	}
	if len(p) != a.in.Space.NumAttrs() {
		return nil, fmt.Errorf("rankfair: key has %d attributes, space has %d", len(p), a.in.Space.NumAttrs())
	}
	for i, v := range p {
		if v != Unbound && int(v) >= a.in.Space.Cards[i] {
			return nil, fmt.Errorf("rankfair: key binds attribute %q to out-of-domain value %d", a.in.Space.Names[i], v)
		}
	}
	return p, nil
}
