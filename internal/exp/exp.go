// Package exp implements the experimental harness of Section VI: parameter
// sweeps over the number of attributes (Figures 4-5), the size threshold τs
// (Figures 6-7) and the range of k (Figures 8-9), comparing ITERTD against
// the optimized algorithms; the nodes-examined comparison of Section VI-B;
// the Shapley case studies of Figures 10a-10f; the divergence case study of
// Section VI-D; and the result-size survey backing the "97.58% of runs
// report fewer than 100 groups" observation of Section III.
//
// Absolute timings depend on hardware; the harness reproduces the *shape*
// of the paper's results: which algorithm wins, how runtime grows with each
// parameter, and where the optimized algorithms save work.
package exp

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"rankfair/internal/core"
	"rankfair/internal/synth"
)

// Config carries the default experiment parameters of Section VI-A.
type Config struct {
	// Tau is the size threshold τs (default 50).
	Tau int
	// KMin, KMax delimit the k range (default [10, 49]).
	KMin, KMax int
	// LowerBase/LowerStep/LowerWidth define the global-bounds staircase
	// (default 10/10/10: L=10,20,30,40 per decade of k).
	LowerBase, LowerStep, LowerWidth int
	// Alpha is the proportional-representation slack (default 0.8).
	Alpha float64
	// Timeout bounds each single algorithm run, mirroring the paper's
	// 10-minute cap; zero means no timeout.
	Timeout time.Duration
	// Seed drives the synthetic data generators.
	Seed int64
}

// Defaults returns the paper's default parameter setting.
func Defaults() Config {
	return Config{
		Tau:  50,
		KMin: 10, KMax: 49,
		LowerBase: 10, LowerStep: 10, LowerWidth: 10,
		Alpha:   0.8,
		Timeout: 2 * time.Minute,
		Seed:    1,
	}
}

// lower builds the staircase bounds for a k range.
func (c Config) lower(kMin, kMax int) []int {
	return core.StaircaseBounds(kMin, kMax, c.LowerBase, c.LowerStep, c.LowerWidth)
}

// Datasets instantiates the three evaluation datasets at a size scale
// (1.0 = the paper's sizes: COMPAS 6889, Student 395, German 1000).
func Datasets(scale float64, seed int64) []*synth.Bundle {
	if scale <= 0 {
		scale = 1
	}
	sz := func(n int) int {
		s := int(float64(n) * scale)
		if s < 60 {
			s = 60
		}
		return s
	}
	return []*synth.Bundle{
		synth.COMPAS(sz(synth.DefaultCOMPASRows), seed),
		synth.Students(sz(synth.DefaultStudentRows), seed+1),
		synth.GermanCredit(sz(synth.DefaultGermanRows), seed+2),
	}
}

// Measurement records one algorithm run within a sweep.
type Measurement struct {
	// Algorithm names the measured algorithm ("IterTD", "GlobalBounds",
	// "PropBounds").
	Algorithm string
	// Param is the swept parameter value (attribute count, τs, or kmax).
	Param int
	// Duration is the wall-clock run time.
	Duration time.Duration
	// Nodes is the number of pattern nodes examined.
	Nodes int64
	// Groups is the total number of reported groups across the k range.
	Groups int
	// TimedOut marks runs abandoned at the configured timeout.
	TimedOut bool
	// Err records a failed run.
	Err error
}

// Figure is a rendered experiment: a title, column header and value rows.
type Figure struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the figure as an aligned text table.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", f.Title); err != nil {
		return err
	}
	widths := make([]int, len(f.Header))
	for i, h := range f.Header {
		widths[i] = len(h)
	}
	for _, row := range f.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(f.Header)); err != nil {
		return err
	}
	for _, row := range f.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the figure as CSV: a comment line with the title, the
// header row, then value rows — convenient for external plotting.
func (f *Figure) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
		return err
	}
	if err := cw.Write(f.Header); err != nil {
		return err
	}
	for _, row := range f.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// runDetector executes one detection run under the configured timeout.
// The search is canceled at the deadline and the run is reported as
// TimedOut, mirroring the paper's policy of plotting timeouts as censored
// points.
func runDetector(name string, timeout time.Duration, in *core.Input, s core.Spec) Measurement {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := core.Search(ctx, in, s)
	dur := time.Since(start)
	if timeout > 0 && (errors.Is(err, context.DeadlineExceeded) || dur > timeout) {
		return Measurement{Algorithm: name, Duration: timeout, TimedOut: true}
	}
	return measurementFrom(name, res, err, dur)
}

func measurementFrom(name string, res *core.Result, err error, dur time.Duration) Measurement {
	m := Measurement{Algorithm: name, Duration: dur, Err: err}
	if res != nil {
		m.Nodes = res.Stats.NodesExamined
		m.Groups = res.TotalGroups()
	}
	return m
}

// fmtDur renders a duration with millisecond precision for tables.
func fmtDur(m Measurement) string {
	if m.TimedOut {
		return "timeout"
	}
	if m.Err != nil {
		return "error"
	}
	return fmt.Sprintf("%.1fms", float64(m.Duration.Microseconds())/1000)
}

func fmtNodes(m Measurement) string {
	if m.TimedOut || m.Err != nil {
		return "-"
	}
	return fmt.Sprintf("%d", m.Nodes)
}

func fmtGroups(m Measurement) string {
	if m.TimedOut || m.Err != nil {
		return "-"
	}
	return fmt.Sprintf("%d", m.Groups)
}

// speedup renders base/opt as a factor string.
func speedup(base, opt Measurement) string {
	if base.TimedOut && !opt.TimedOut {
		return ">1x (baseline timed out)"
	}
	if base.TimedOut || opt.TimedOut || base.Err != nil || opt.Err != nil || opt.Duration <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base.Duration)/float64(opt.Duration))
}
