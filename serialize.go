package rankfair

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"rankfair/internal/pattern"
)

// Measure names for AuditParams.Measure, matching the biasdetect CLI
// vocabulary and the rankfaird audit API.
const (
	MeasureGlobal      = "global"
	MeasureProp        = "prop"
	MeasureGlobalUpper = "global-upper"
	MeasurePropUpper   = "prop-upper"
	MeasureExposure    = "exposure"
)

// Measures lists every measure name accepted by AuditParams, in a stable
// order.
func Measures() []string {
	return []string{MeasureGlobal, MeasureProp, MeasureGlobalUpper, MeasurePropUpper, MeasureExposure}
}

// AuditParams is the measure-tagged, JSON-serializable union of the five
// detection parameter sets. It is the wire format shared by the rankfaird
// audit service and any tooling that persists or replays detection
// requests; Analyst.Detect dispatches it to the matching typed entry point.
type AuditParams struct {
	// Measure selects the fairness measure: one of Measures().
	Measure string `json:"measure"`
	// MinSize is the size threshold τs on s_D(p).
	MinSize int `json:"min_size"`
	// KMin, KMax delimit the inclusive range of k values.
	KMin int `json:"kmin"`
	KMax int `json:"kmax"`
	// Alpha is the proportional lower slack (prop, exposure).
	Alpha float64 `json:"alpha,omitempty"`
	// Beta is the proportional upper slack (prop-upper).
	Beta float64 `json:"beta,omitempty"`
	// Lower holds L_k per k, indexed k-KMin (global).
	Lower []int `json:"lower,omitempty"`
	// Upper holds U_k per k, indexed k-KMin (global-upper).
	Upper []int `json:"upper,omitempty"`
	// Baseline selects the ITERTD baseline over the optimized algorithm
	// where both exist (global, prop, exposure).
	Baseline bool `json:"baseline,omitempty"`
	// Workers caps the goroutines one detection run may fan its lattice
	// search out over: 0 defers to the caller's default (rankfaird
	// substitutes its configured per-audit default; direct library calls
	// run serially), 1 forces the serial path, and larger values enable
	// the parallel search, whose results are byte-identical to serial.
	// Because it never changes results — only wall clock — Workers is
	// deliberately excluded from CacheKey.
	Workers int `json:"workers,omitempty"`
}

// MaxWorkers bounds AuditParams.Workers; it exists so a malformed request
// cannot make the daemon spawn an absurd number of goroutines.
const MaxWorkers = 256

// Validate checks the parameter set for structural errors without touching
// a dataset, so servers can reject bad requests before queueing work.
func (p *AuditParams) Validate() error {
	if p.KMin < 1 || p.KMax < p.KMin {
		return fmt.Errorf("rankfair: invalid k range [%d,%d]", p.KMin, p.KMax)
	}
	if p.MinSize < 0 {
		return fmt.Errorf("rankfair: negative size threshold %d", p.MinSize)
	}
	if p.Workers < 0 || p.Workers > MaxWorkers {
		return fmt.Errorf("rankfair: workers must be in [0,%d], got %d", MaxWorkers, p.Workers)
	}
	switch p.Measure {
	case MeasureGlobal:
		if len(p.Lower) != p.KMax-p.KMin+1 {
			return fmt.Errorf("rankfair: %d lower bounds for k range [%d,%d]", len(p.Lower), p.KMin, p.KMax)
		}
	case MeasureGlobalUpper:
		if len(p.Upper) != p.KMax-p.KMin+1 {
			return fmt.Errorf("rankfair: %d upper bounds for k range [%d,%d]", len(p.Upper), p.KMin, p.KMax)
		}
		if p.Baseline {
			return fmt.Errorf("rankfair: measure %q has no baseline variant", p.Measure)
		}
	case MeasureProp, MeasureExposure:
		if p.Alpha <= 0 {
			return fmt.Errorf("rankfair: alpha must be positive, got %v", p.Alpha)
		}
	case MeasurePropUpper:
		if p.Beta <= 0 {
			return fmt.Errorf("rankfair: beta must be positive, got %v", p.Beta)
		}
		if p.Baseline {
			return fmt.Errorf("rankfair: measure %q has no baseline variant", p.Measure)
		}
	default:
		return fmt.Errorf("rankfair: unknown measure %q (want %s)", p.Measure, strings.Join(Measures(), "|"))
	}
	return nil
}

// CacheKey renders the parameter set as a canonical string: equal keys iff
// the parameters select the same computation. Result caches combine it
// with a dataset content hash and a ranker key. Workers is intentionally
// absent: the parallel search returns byte-identical results, so audits
// differing only in fan-out must share one cache entry.
func (p *AuditParams) CacheKey() string {
	var b strings.Builder
	b.WriteString(p.Measure)
	b.WriteString("|ts=")
	b.WriteString(strconv.Itoa(p.MinSize))
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(p.KMin))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(p.KMax))
	switch p.Measure {
	case MeasureProp, MeasureExposure:
		b.WriteString("|a=")
		b.WriteString(strconv.FormatFloat(p.Alpha, 'g', -1, 64))
	case MeasurePropUpper:
		b.WriteString("|b=")
		b.WriteString(strconv.FormatFloat(p.Beta, 'g', -1, 64))
	case MeasureGlobal:
		b.WriteString("|L=")
		writeIntSeq(&b, p.Lower)
	case MeasureGlobalUpper:
		b.WriteString("|U=")
		writeIntSeq(&b, p.Upper)
	}
	if p.Baseline {
		b.WriteString("|base")
	}
	return b.String()
}

func writeIntSeq(b *strings.Builder, xs []int) {
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
}

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

// measureName renders the report kind.
func (r *Report) measureName() string {
	switch r.kind {
	case kindGlobalLower:
		return "global-lower"
	case kindPropLower:
		return "proportional-lower"
	case kindGlobalUpper:
		return "global-upper"
	case kindPropUpper:
		return "proportional-upper"
	case kindExposure:
		return "exposure"
	default:
		return "unknown"
	}
}

// ToJSON converts the report to its serializable form. On the indexed path
// every per-group constant — canonical key, attribute→label map, size — is
// precomputed once per distinct group (see groupCounts), so a k level
// costs struct copies plus the per-k numbers; the naive path rebuilds
// everything per (group, k) and is kept as the differential baseline.
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
		var kg KGroupsJSON
		if r.naiveCounts {
			kg = r.kGroupsNaive(k)
		} else {
			items := r.enrichedAt(k)
			if len(items) == 0 {
				continue
			}
			kg = KGroupsJSON{K: k, Groups: make([]GroupJSON, len(items))}
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
		}
		if len(kg.Groups) == 0 {
			continue
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

// kGroupsNaive is the pre-index per-k serialization, preserved verbatim as
// the differential baseline: label maps and keys rebuilt per (group, k).
func (r *Report) kGroupsNaive(k int) KGroupsJSON {
	infos := r.InfoAt(k)
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
