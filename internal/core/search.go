package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Measure names for Spec.Measure: the vocabulary of the rankfaird audit
// API and of the biasdetect -measure flag.
const (
	// MeasureGlobal is Problem 3.1: most general groups below L_k.
	MeasureGlobal = "global"
	// MeasureProp is Problem 3.2: most general groups below α·s_D(p)·k/|D|.
	MeasureProp = "prop"
	// MeasureGlobalUpper reports the most specific groups above U_k.
	MeasureGlobalUpper = "global-upper"
	// MeasurePropUpper reports the most specific groups above β·s_D(p)·k/|D|.
	MeasurePropUpper = "prop-upper"
	// MeasureExposure is the position-discounted proportional measure.
	MeasureExposure = "exposure"
	// MeasureLowerSpecific reports the most specific groups below L_k, one
	// of the alternate report semantics Section III sketches.
	MeasureLowerSpecific = "lower-specific"
	// MeasureUpperGeneral reports the most general groups above U_k (by
	// count monotonicity they bind a single attribute).
	MeasureUpperGeneral = "upper-general"
)

// MaxWorkers bounds Spec.Workers; it exists so a malformed request cannot
// make the daemon spawn an absurd number of goroutines.
const MaxWorkers = 256

// Spec is the measure-tagged, JSON-serializable parameter set of one
// detection run. It is the wire format shared by the rankfaird audit
// service and any tooling that persists or replays detection requests;
// Search dispatches it to the matching algorithm.
type Spec struct {
	// Measure selects the fairness measure: one of the Measure* names.
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
	// Lower holds L_k per k, indexed k-KMin (global, lower-specific). The
	// incremental global search requires a non-decreasing sequence (the
	// paper's assumption), which Validate checks; the baseline and
	// lower-specific accept any sequence.
	Lower []int `json:"lower,omitempty"`
	// Upper holds U_k per k, indexed k-KMin (global-upper, upper-general).
	Upper []int `json:"upper,omitempty"`
	// Baseline selects the ITERTD baseline over the incremental algorithm
	// where both exist (global, prop, global-upper, exposure).
	Baseline bool `json:"baseline,omitempty"`
	// Workers caps the goroutines one detection run may fan its lattice
	// search out over: 0 defers to the caller's default (rankfaird
	// substitutes its configured per-audit default; Search runs serially),
	// 1 forces the serial path, and larger values enable the parallel
	// search, whose results are byte-identical to serial. Because it never
	// changes results — only wall clock — Workers is deliberately excluded
	// from CacheKey.
	Workers int `json:"workers,omitempty"`
}

// threshold names the Spec field that carries a measure's bound.
type threshold int

const (
	thresholdLower threshold = iota // Lower: L_k per k
	thresholdUpper                  // Upper: U_k per k
	thresholdAlpha                  // Alpha
	thresholdBeta                   // Beta
)

// searchFunc runs one detection algorithm over a validated input and spec.
type searchFunc func(ctx context.Context, in *Input, s *Spec) (*Result, error)

// measures is Search's dispatch table: per measure, the field carrying its
// threshold, the search it runs by default (the incremental algorithm
// where one exists) and the ITERTD baseline Spec.Baseline selects (nil
// when the default already is ITERTD, so Validate rejects Baseline).
var measures = []struct {
	name             string
	threshold        threshold
	search, baseline searchFunc
}{
	{MeasureGlobal, thresholdLower, incremental, collect(reportGeneral)},
	{MeasureProp, thresholdAlpha, incremental, collect(reportGeneral)},
	{MeasureGlobalUpper, thresholdUpper, incremental, collect(reportSpecific)},
	{MeasurePropUpper, thresholdBeta, collect(reportSpecific), nil},
	{MeasureExposure, thresholdAlpha, incremental, collect(reportGeneral)},
	{MeasureLowerSpecific, thresholdLower, collect(reportSpecific), nil},
	{MeasureUpperGeneral, thresholdUpper, collect(reportGeneral), nil},
}

// measureIndex returns the dispatch-table row of name, or -1.
func measureIndex(name string) int {
	for i := range measures {
		if measures[i].name == name {
			return i
		}
	}
	return -1
}

// Validate checks the parameter set for structural errors without touching
// a dataset, so servers can reject bad requests before queueing work. Its
// messages are part of the rankfaird API (HTTP 400 bodies), hence the
// rankfair prefix.
func (s *Spec) Validate() error {
	if s.KMin < 1 || s.KMax < s.KMin {
		return fmt.Errorf("rankfair: invalid k range [%d,%d]", s.KMin, s.KMax)
	}
	if s.MinSize < 0 {
		return fmt.Errorf("rankfair: negative size threshold %d", s.MinSize)
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("rankfair: workers must be in [0,%d], got %d", MaxWorkers, s.Workers)
	}
	i := measureIndex(s.Measure)
	if i < 0 {
		names := make([]string, len(measures))
		for j := range measures {
			names[j] = measures[j].name
		}
		return fmt.Errorf("rankfair: unknown measure %q (want %s)", s.Measure, strings.Join(names, "|"))
	}
	m := &measures[i]
	switch m.threshold {
	case thresholdLower:
		if len(s.Lower) != s.KMax-s.KMin+1 {
			return fmt.Errorf("rankfair: %d lower bounds for k range [%d,%d]", len(s.Lower), s.KMin, s.KMax)
		}
		if s.Measure == MeasureGlobal && !s.Baseline {
			for i := 1; i < len(s.Lower); i++ {
				if s.Lower[i] < s.Lower[i-1] {
					return fmt.Errorf("rankfair: the incremental global search requires non-decreasing lower bounds, got L=%d after L=%d (use the ITERTD baseline for arbitrary bounds)",
						s.Lower[i], s.Lower[i-1])
				}
			}
		}
	case thresholdUpper:
		if len(s.Upper) != s.KMax-s.KMin+1 {
			return fmt.Errorf("rankfair: %d upper bounds for k range [%d,%d]", len(s.Upper), s.KMin, s.KMax)
		}
	case thresholdAlpha:
		if !positiveFinite(s.Alpha) {
			return fmt.Errorf("rankfair: alpha must be finite and positive, got %v", s.Alpha)
		}
	case thresholdBeta:
		if !positiveFinite(s.Beta) {
			return fmt.Errorf("rankfair: beta must be finite and positive, got %v", s.Beta)
		}
	}
	if s.Baseline && m.baseline == nil {
		return fmt.Errorf("rankfair: measure %q has no baseline variant", s.Measure)
	}
	return nil
}

// positiveFinite reports whether x is a usable slack: a NaN compares
// false against every bound and +Inf exceeds every one, so both would
// turn the search into a no-op or flag every group.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// CacheKey renders the parameter set as a canonical string: equal keys iff
// the parameters select the same computation. Result caches combine it
// with a dataset content hash and a ranker key. Workers is intentionally
// absent: the parallel search returns byte-identical results, so audits
// differing only in fan-out must share one cache entry.
func (s *Spec) CacheKey() string {
	var b strings.Builder
	b.WriteString(s.Measure)
	b.WriteString("|ts=")
	b.WriteString(strconv.Itoa(s.MinSize))
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(s.KMin))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(s.KMax))
	if i := measureIndex(s.Measure); i >= 0 {
		switch measures[i].threshold {
		case thresholdAlpha:
			b.WriteString("|a=")
			b.WriteString(strconv.FormatFloat(s.Alpha, 'g', -1, 64))
		case thresholdBeta:
			b.WriteString("|b=")
			b.WriteString(strconv.FormatFloat(s.Beta, 'g', -1, 64))
		case thresholdLower:
			b.WriteString("|L=")
			writeIntSeq(&b, s.Lower)
		case thresholdUpper:
			b.WriteString("|U=")
			writeIntSeq(&b, s.Upper)
		}
	}
	if s.Baseline {
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

// Search runs the detection s describes over in: for every k in
// [s.KMin, s.KMax], the groups whose top-k representation violates the
// measure's bound. Spec.Baseline selects the ITERTD baseline, otherwise
// the measure's incremental algorithm runs where one exists; both return
// the same groups. Canceling ctx stops the lattice search mid-traversal
// with a CanceledError, within a bounded number of node expansions. The
// search spreads over s.Workers goroutines (0 and 1 are serial) with
// results byte-identical for every worker count.
func Search(ctx context.Context, in *Input, s Spec) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if s.KMax > len(in.Rows) {
		return nil, fmt.Errorf("core: kMax=%d exceeds dataset size %d", s.KMax, len(in.Rows))
	}
	s.Workers = max(s.Workers, 1)
	m := &measures[measureIndex(s.Measure)]
	if s.Baseline {
		return m.baseline(ctx, in, &s)
	}
	return m.search(ctx, in, &s)
}
