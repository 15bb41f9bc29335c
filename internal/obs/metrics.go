// Package obs is the dependency-free observability core shared by the
// serving layer: a metrics registry (counters, gauges, fixed-bucket
// histograms and their one-label vectors), lightweight phase spans carried
// on context.Context with a bounded in-memory trace ring, runtime gauges,
// and an OTLP/HTTP exporter. Every metric family reads its state into one
// structured snapshot (Registry.Snapshot); the Prometheus 0.0.4 scrape,
// the OpenMetrics 1.0 scrape and the OTLP metrics export all render from
// it. Everything is built on the standard library only — sync/atomic
// counters, a CAS loop for the histogram's float sum — so the package can
// be imported from any layer without pulling a client library into the
// module.
package obs

import (
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout in seconds, spanning
// sub-millisecond cache hits to multi-second cold lattice searches.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Registry holds metric families in registration order. Registration
// happens at service construction; snapshots, scrapes and metric updates
// are safe concurrently.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]bool
}

// family is one registered metric family: fixed name, help, type and
// label name (empty unless the family is a vector), plus the hook that
// appends its current points to dst and returns the extended slice.
type family struct {
	name, help, typ, label string
	points                 func(dst []MetricPoint) []MetricPoint
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(name, help, typ, label string, points func([]MetricPoint) []MetricPoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic("obs: duplicate metric registration: " + name)
	}
	r.byName[name] = true
	r.fams = append(r.fams, &family{name: name, help: help, typ: typ, label: label, points: points})
}

// Exemplar ties one observation to the trace that produced it: the
// OpenMetrics scrape renders it as a `# {trace_id="..."} value` suffix
// and the OTLP export attaches it to the histogram data point, so an
// operator can jump from a slow latency bucket to the specific audit
// trace that landed in it.
type Exemplar struct {
	TraceID string
	Value   float64
}

// MetricPoint is one sample in a family snapshot. Counter and gauge
// points use Value; histogram points carry the bucket layout, per-bucket
// counts (non-cumulative, with the +Inf overflow last) and the optional
// per-bucket exemplars.
type MetricPoint struct {
	Label     string // label value; "" when the family is unlabeled
	Value     int64
	Bounds    []float64
	Buckets   []int64
	Count     int64
	Sum       float64
	Exemplars []*Exemplar // parallel to Buckets; nil entries have none
}

// FamilySnapshot is the structured form of one metric family, in
// registration order from Registry.Snapshot. Label is the label *name*
// for vector families ("" otherwise); points are sorted by label value.
type FamilySnapshot struct {
	Name, Help, Typ, Label string
	Points                 []MetricPoint
}

// Snapshot captures every family's current state in registration order —
// the one source both text expositions and the OTLP metrics export render
// from, so no two of them can disagree about a value. Every family's
// points share one slice, allocated per call, so concurrent snapshots
// never share it.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := slices.Clone(r.fams)
	r.mu.Unlock()
	out := make([]FamilySnapshot, len(fams))
	points := make([]MetricPoint, 0, len(fams))
	for i, f := range fams {
		start := len(points)
		points = f.points(points)
		out[i] = FamilySnapshot{Name: f.name, Help: f.help, Typ: f.typ, Label: f.label, Points: points[start:]}
	}
	// Point every family into the final slice: appends may have moved it
	// after earlier families were sliced.
	start := 0
	for i := range out {
		end := start + len(out[i].Points)
		out[i].Points = points[start:end:end]
		start = end
	}
	return out
}

// WriteTo renders every family in registration order as Prometheus text
// exposition format 0.0.4.
func (r *Registry) WriteTo(w io.Writer) (int64, error) { return r.write(w, false) }

// WriteOpenMetrics renders every family in registration order as
// OpenMetrics 1.0 text, exemplars included, terminated by `# EOF`.
func (r *Registry) WriteOpenMetrics(w io.Writer) (int64, error) { return r.write(w, true) }

// write renders one snapshot in either text format. The formats differ
// only in four places, all behind om:
//   - OpenMetrics puts TYPE before HELP, 0.0.4 HELP before TYPE;
//   - OpenMetrics counter *family* names drop the _total suffix while
//     their samples carry it (`# TYPE foo counter` / `foo_total 5`);
//   - OpenMetrics histogram _bucket lines carry `# {trace_id="..."} value`
//     exemplar suffixes pointing at the last trace to land in the bucket;
//   - the OpenMetrics body ends with `# EOF`.
func (r *Registry) write(w io.Writer, om bool) (int64, error) {
	b := make([]byte, 0, 4096)
	for _, f := range r.Snapshot() {
		fam, sample := f.Name, f.Name
		if om && f.Typ == "counter" {
			fam = strings.TrimSuffix(fam, "_total")
			sample = fam + "_total"
		}
		if om {
			b = appendMeta(b, "TYPE", fam, f.Typ)
		}
		b = appendMeta(b, "HELP", fam, f.Help)
		if !om {
			b = appendMeta(b, "TYPE", fam, f.Typ)
		}
		for _, p := range f.Points {
			if f.Typ == "histogram" {
				b = appendHistogram(b, sample, f.Label, p, om)
				continue
			}
			b = appendSeries(b, sample, "", f.Label, p.Label, nil)
			b = append(strconv.AppendInt(b, p.Value, 10), '\n')
		}
	}
	if om {
		b = append(b, "# EOF\n"...)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// appendMeta writes one `# KIND family text` metadata line, escaping text
// as a HELP docstring (a no-op for type names).
func appendMeta(b []byte, kind, fam, text string) []byte {
	b = append(b, "# "...)
	b = append(b, kind...)
	b = append(b, ' ')
	b = append(b, fam...)
	b = append(b, ' ')
	return append(appendEscapedHelp(b, text), '\n')
}

// appendSeries writes a sample's name (name+suffix) and label block — the
// family's label pair when it has one, then le for a bucket — followed by
// the space before the value.
func appendSeries(b []byte, name, suffix, label, value string, le []byte) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if label == "" && le == nil {
		return append(b, ' ')
	}
	b = append(b, '{')
	if label != "" {
		b = append(b, label...)
		b = append(b, `="`...)
		b = appendEscapedLabel(b, value)
		b = append(b, '"')
		if le != nil {
			b = append(b, ',')
		}
	}
	if le != nil {
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"')
	}
	return append(b, "} "...)
}

// appendHistogram renders one histogram point: cumulative bucket lines
// ending in +Inf (with exemplar suffixes when om), then _sum and _count.
func appendHistogram(b []byte, name, label string, p MetricPoint, om bool) []byte {
	le := make([]byte, 0, 24)
	cum := int64(0)
	for i, n := range p.Buckets {
		cum += n
		if i < len(p.Bounds) {
			le = appendFloat(le[:0], p.Bounds[i])
		} else {
			le = append(le[:0], "+Inf"...)
		}
		b = appendSeries(b, name, "_bucket", label, p.Label, le)
		b = strconv.AppendInt(b, cum, 10)
		if ex := p.Exemplars[i]; om && ex != nil {
			b = append(b, ` # {trace_id="`...)
			b = appendEscapedLabel(b, ex.TraceID)
			b = append(b, `"} `...)
			b = appendFloat(b, ex.Value)
		}
		b = append(b, '\n')
	}
	b = appendSeries(b, name, "_sum", label, p.Label, nil)
	b = append(appendFloat(b, p.Sum), '\n')
	b = appendSeries(b, name, "_count", label, p.Label, nil)
	return append(strconv.AppendInt(b, p.Count, 10), '\n')
}

// appendEscapedHelp escapes a HELP docstring: backslash and newline, per
// the Prometheus text format.
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendEscapedLabel escapes a label value: backslash, double quote and
// newline.
func appendEscapedLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendFloat renders a float sample (bucket bound, histogram sum,
// exemplar value); integral floats render without a fraction ("1",
// "0.005", "2.5").
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// valuePoints is the points hook of an unlabeled counter or gauge: one
// point whose value is read at snapshot time.
func valuePoints(fn func() int64) func([]MetricPoint) []MetricPoint {
	return func(dst []MetricPoint) []MetricPoint { return append(dst, MetricPoint{Value: fn()}) }
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the rendered series to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) point(label string) MetricPoint {
	return MetricPoint{Label: label, Value: c.Value()}
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.NewCounterFunc(name, help, c.Value)
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters owned by another subsystem (job manager,
// caches) that already maintains them under its own lock.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(name, help, "counter", "", valuePoints(fn))
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time. Values are integral (entry counts, bytes, goroutines).
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, "gauge", "", valuePoints(fn))
}

// Gauge is a settable level (inflight requests, queue depths) owned by
// the instrumented code itself rather than read through a func.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) point(label string) MetricPoint {
	return MetricPoint{Label: label, Value: g.Value()}
}

// NewGauge registers and returns a settable gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.NewGaugeFunc(name, help, g.Value)
	return g
}

// vec is a family of metrics keyed by one label's value, each created
// lazily on first With. Snapshots sort by label value so scrapes are
// deterministic.
type vec[T any] struct {
	mu    sync.Mutex
	vals  map[string]*T
	fresh func() *T
}

// CounterVec is a family of counters keyed by one label's value.
type CounterVec = vec[Counter]

// GaugeVec is a family of gauges keyed by one label's value.
type GaugeVec = vec[Gauge]

// HistogramVec is a family of histograms keyed by one label's value (e.g.
// per-endpoint request latency).
type HistogramVec = vec[Histogram]

// newVec registers a vector family whose points are read by point.
func newVec[T any](r *Registry, name, help, typ, label string, fresh func() *T, point func(*T, string) MetricPoint) *vec[T] {
	v := &vec[T]{vals: make(map[string]*T), fresh: fresh}
	r.register(name, help, typ, label, func(dst []MetricPoint) []MetricPoint {
		v.mu.Lock()
		defer v.mu.Unlock()
		for _, k := range slices.Sorted(maps.Keys(v.vals)) {
			dst = append(dst, point(v.vals[k], k))
		}
		return dst
	})
	return v
}

// With returns the metric for one label value, creating it on first use.
func (v *vec[T]) With(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.vals[value]
	if !ok {
		m = v.fresh()
		v.vals[value] = m
	}
	return m
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	return newVec(r, name, help, "counter", label, func() *Counter { return &Counter{} }, (*Counter).point)
}

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	return newVec(r, name, help, "gauge", label, func() *Gauge { return &Gauge{} }, (*Gauge).point)
}

// NewHistogramVec registers and returns a labeled histogram family. Nil
// bounds select DefBuckets.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	bs := slices.Clone(bounds)
	return newVec(r, name, help, "histogram", label, func() *Histogram { return newHistogram(bs) }, (*Histogram).point)
}

// Histogram is a fixed-bucket latency histogram: per-bucket atomic counts,
// an atomic observation count, and a float64 sum maintained with a CAS
// loop so concurrent Observe calls never lose updates. Bucket semantics
// follow Prometheus: bucket i counts observations <= bounds[i], rendered
// cumulatively with a trailing +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last slot is the +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	// ex holds the last exemplar observed per bucket (len(bounds)+1).
	// Stored behind atomic pointers so ObserveExemplar costs one pointer
	// swap beyond Observe and never blocks a concurrent scrape; plain
	// Observe never touches the slots, keeping the hot path identical to
	// the pre-exemplar layout.
	ex []atomic.Pointer[Exemplar]
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	bs := slices.Clone(bounds)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observe(v)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// replaces the landing bucket's exemplar so the OpenMetrics scrape and
// the OTLP export can point at the most recent trace that hit the bucket.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID != "" {
		h.ex[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// observe updates the counters and returns the landing bucket index.
func (h *Histogram) observe(v float64) int {
	// First bound >= v: v lands in that bucket (le is inclusive); beyond
	// every bound it lands in the +Inf slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nxt) {
			return i
		}
	}
}

// point captures the histogram as one MetricPoint. Its Count is the sum
// of the bucket counts it read, not the observation counter: observe
// bumps a bucket before the counter, so a snapshot racing an observation
// would otherwise render a _count below its +Inf bucket.
func (h *Histogram) point(label string) MetricPoint {
	p := MetricPoint{
		Label:     label,
		Bounds:    h.bounds,
		Buckets:   make([]int64, len(h.counts)),
		Sum:       h.Sum(),
		Exemplars: make([]*Exemplar, len(h.counts)),
	}
	for i := range h.counts {
		p.Buckets[i] = h.counts[i].Load()
		p.Exemplars[i] = h.ex[i].Load()
		p.Count += p.Buckets[i]
	}
	return p
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// by linear interpolation inside the target bucket, the same estimate
// Prometheus's histogram_quantile computes server-side. The admission
// layer uses the p50 run time to compute Retry-After hints. With no
// observations it returns 0; a target rank landing in the +Inf bucket
// returns the highest finite bound (the histogram cannot say more).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(total)
	cum := int64(0)
	for i, bound := range h.bounds {
		n := h.counts[i].Load()
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if n == 0 {
				return bound
			}
			return lower + (bound-lower)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// NewHistogram registers and returns a histogram. Nil bounds select
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := newHistogram(bounds)
	r.register(name, help, "histogram", "", func(dst []MetricPoint) []MetricPoint { return append(dst, h.point("")) })
	return h
}
