package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// OTLP/HTTP JSON export (https://opentelemetry.io/docs/specs/otlp/),
// hand-rolled against the proto3 JSON mapping so the daemon ships spans
// and metrics to any collector without pulling the OpenTelemetry SDK into
// the module. The mapping's sharp edges, encoded here so they are tested
// rather than remembered: trace/span IDs serialize as lowercase hex (the
// OTLP/JSON exception to proto3's base64 bytes rule), uint64 fields
// (unix nanos, bucket counts) serialize as decimal strings, and span kind
// / aggregation temporality are bare enum integers.

// OTLP span kinds and metric temporality (only the values we emit).
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	// cumulative: every point reports totals since exporter start, the
	// natural fit for monotone counters scraped from a live registry.
	otlpTemporalityCumulative = 2
	otlpStatusOK              = 1
	otlpStatusError           = 2
)

// ExporterCounters are the self-observation hooks: the service registers
// these series in its own registry (so the scrape documents the export
// pipeline) and hands them to the exporter. Any nil field is skipped.
type ExporterCounters struct {
	Dropped    *Counter    // traces discarded because the queue was full
	Retries    *Counter    // individual retry attempts after 429/5xx
	Exports    *CounterVec // successful POSTs by signal ("traces"/"metrics")
	Failures   *CounterVec // exhausted/permanent failures by signal
	QueueDepth *Gauge      // traces waiting in the queue
}

// ExporterConfig configures an Exporter. Endpoint is the collector base
// URL (the exporter appends /v1/traces and /v1/metrics); Registry, when
// set, is snapshotted every Interval and shipped as OTLP metrics.
type ExporterConfig struct {
	Endpoint      string
	Service       string        // resource service.name; default "rankfaird"
	Registry      *Registry     // optional metrics source
	Interval      time.Duration // metric export period; default 15s
	FlushInterval time.Duration // span batch flush period; default 2s
	QueueSize     int           // bounded trace queue; default 256
	BatchSize     int           // traces per POST; default 64
	MaxRetries    int           // retries after 429/5xx; default 3
	Counters      ExporterCounters
	Client        *http.Client            // default: 5s-timeout client
	Logger        *slog.Logger            // optional failure logging
	Now           func() time.Time        // test seam; default time.Now
	Backoff       func(int) time.Duration // test seam; default jittered exponential
}

func (c ExporterConfig) withDefaults() ExporterConfig {
	if c.Service == "" {
		c.Service = "rankfaird"
	}
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Second
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Backoff == nil {
		c.Backoff = func(attempt int) time.Duration {
			base := 100 * time.Millisecond << attempt
			return base + time.Duration(rand.Int63n(int64(base)))
		}
	}
	return c
}

// Exporter ships finished traces and periodic metric snapshots to an
// OTLP/HTTP collector from a single background goroutine. Enqueue never
// blocks: when the bounded queue is full the trace is dropped and
// counted, so a stalled collector can never stall an audit.
type Exporter struct {
	cfg   ExporterConfig
	queue chan *Trace
	stop  chan struct{}
	done  chan struct{}
	start time.Time
}

// NewExporter starts the export goroutine. Callers must Close it.
func NewExporter(cfg ExporterConfig) *Exporter {
	cfg = cfg.withDefaults()
	e := &Exporter{
		cfg:   cfg,
		queue: make(chan *Trace, cfg.QueueSize),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		start: cfg.Now(),
	}
	go e.run()
	return e
}

// EnqueueTrace hands a finished trace to the exporter without blocking.
// It reports false when the queue was full and the trace was dropped.
func (e *Exporter) EnqueueTrace(t *Trace) bool {
	select {
	case e.queue <- t:
		setGauge(e.cfg.Counters.QueueDepth, int64(len(e.queue)))
		return true
	default:
		incCounter(e.cfg.Counters.Dropped)
		return false
	}
}

// Close stops the exporter: it drains whatever the queue holds, ships the
// final span batch and one last metric snapshot, and waits for the
// goroutine to exit or the context to expire.
func (e *Exporter) Close(ctx context.Context) error {
	close(e.stop)
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Exporter) run() {
	defer close(e.done)
	flush := time.NewTicker(e.cfg.FlushInterval)
	defer flush.Stop()
	metrics := time.NewTicker(e.cfg.Interval)
	defer metrics.Stop()
	batch := make([]*Trace, 0, e.cfg.BatchSize)
	sendBatch := func() {
		if len(batch) == 0 {
			return
		}
		e.exportTraces(batch)
		batch = batch[:0]
	}
	for {
		select {
		case t := <-e.queue:
			setGauge(e.cfg.Counters.QueueDepth, int64(len(e.queue)))
			batch = append(batch, t)
			if len(batch) >= e.cfg.BatchSize {
				sendBatch()
			}
		case <-flush.C:
			sendBatch()
		case <-metrics.C:
			e.exportMetrics()
		case <-e.stop:
			for {
				select {
				case t := <-e.queue:
					batch = append(batch, t)
					if len(batch) >= e.cfg.BatchSize {
						sendBatch()
					}
					continue
				default:
				}
				break
			}
			sendBatch()
			e.exportMetrics()
			setGauge(e.cfg.Counters.QueueDepth, 0)
			return
		}
	}
}

func (e *Exporter) exportTraces(traces []*Trace) {
	body, err := OTLPTraceRequest(e.cfg.Service, traces)
	if err != nil {
		e.fail("traces", err)
		return
	}
	e.post("traces", "/v1/traces", body)
}

func (e *Exporter) exportMetrics() {
	if e.cfg.Registry == nil {
		return
	}
	body, err := OTLPMetricsRequest(e.cfg.Service, e.cfg.Registry.Snapshot(), e.start, e.cfg.Now())
	if err != nil {
		e.fail("metrics", err)
		return
	}
	e.post("metrics", "/v1/metrics", body)
}

// post ships one payload, retrying on 429 and 5xx with jittered backoff.
// Other statuses and transport errors fail immediately — resending a
// payload a collector has rejected as malformed only burns the queue.
func (e *Exporter) post(signal, path string, body []byte) {
	url := strings.TrimSuffix(e.cfg.Endpoint, "/") + path
	for attempt := 0; ; attempt++ {
		resp, err := e.cfg.Client.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code >= 200 && code < 300 {
				if v := e.cfg.Counters.Exports; v != nil {
					v.With(signal).Inc()
				}
				return
			}
			if code != http.StatusTooManyRequests && code < 500 {
				e.fail(signal, fmt.Errorf("collector returned %d", code))
				return
			}
			err = fmt.Errorf("collector returned %d", code)
		}
		if attempt >= e.cfg.MaxRetries {
			e.fail(signal, err)
			return
		}
		incCounter(e.cfg.Counters.Retries)
		select {
		case <-time.After(e.cfg.Backoff(attempt)):
		case <-e.stop:
			// Shutting down: one immediate final attempt, then give up.
			if attempt >= e.cfg.MaxRetries-1 {
				e.fail(signal, err)
				return
			}
		}
	}
}

func (e *Exporter) fail(signal string, err error) {
	if v := e.cfg.Counters.Failures; v != nil {
		v.With(signal).Inc()
	}
	if e.cfg.Logger != nil {
		e.cfg.Logger.Warn("otlp export failed", "signal", signal, "error", err)
	}
}

func incCounter(c *Counter) {
	if c != nil {
		c.Inc()
	}
}

func setGauge(g *Gauge, v int64) {
	if g != nil {
		g.Set(v)
	}
}

// --- OTLP JSON shapes -------------------------------------------------

type otlpAnyValue struct {
	StringValue string `json:"stringValue"`
}

type otlpKeyValue struct {
	Key   string       `json:"key"`
	Value otlpAnyValue `json:"value"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpStatus struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Status            *otlpStatus    `json:"status,omitempty"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpTracePayload struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpNumberPoint struct {
	Attributes    []otlpKeyValue `json:"attributes,omitempty"`
	StartUnixNano string         `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano  string         `json:"timeUnixNano"`
	AsDouble      float64        `json:"asDouble"`
}

type otlpSum struct {
	DataPoints             []otlpNumberPoint `json:"dataPoints"`
	AggregationTemporality int               `json:"aggregationTemporality"`
	IsMonotonic            bool              `json:"isMonotonic"`
}

type otlpGauge struct {
	DataPoints []otlpNumberPoint `json:"dataPoints"`
}

type otlpExemplar struct {
	TraceID      string  `json:"traceId,omitempty"`
	TimeUnixNano string  `json:"timeUnixNano"`
	AsDouble     float64 `json:"asDouble"`
}

type otlpHistogramPoint struct {
	Attributes     []otlpKeyValue `json:"attributes,omitempty"`
	StartUnixNano  string         `json:"startTimeUnixNano"`
	TimeUnixNano   string         `json:"timeUnixNano"`
	Count          string         `json:"count"`
	Sum            float64        `json:"sum"`
	BucketCounts   []string       `json:"bucketCounts"`
	ExplicitBounds []float64      `json:"explicitBounds"`
	Exemplars      []otlpExemplar `json:"exemplars,omitempty"`
}

type otlpHistogram struct {
	DataPoints             []otlpHistogramPoint `json:"dataPoints"`
	AggregationTemporality int                  `json:"aggregationTemporality"`
}

type otlpMetric struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Sum         *otlpSum       `json:"sum,omitempty"`
	Gauge       *otlpGauge     `json:"gauge,omitempty"`
	Histogram   *otlpHistogram `json:"histogram,omitempty"`
}

type otlpScopeMetrics struct {
	Scope   otlpScope    `json:"scope"`
	Metrics []otlpMetric `json:"metrics"`
}

type otlpResourceMetrics struct {
	Resource     otlpResource       `json:"resource"`
	ScopeMetrics []otlpScopeMetrics `json:"scopeMetrics"`
}

type otlpMetricsPayload struct {
	ResourceMetrics []otlpResourceMetrics `json:"resourceMetrics"`
}

const otlpScopeName = "rankfair/internal/obs"

func otlpResourceFor(service string) otlpResource {
	return otlpResource{Attributes: []otlpKeyValue{
		{Key: "service.name", Value: otlpAnyValue{StringValue: service}},
	}}
}

func unixNano(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// OTLPTraceRequest marshals finished traces as one ExportTraceServiceRequest.
// The root span exports as SERVER kind with a status derived from its
// outcome attribute; phase children export as INTERNAL.
func OTLPTraceRequest(service string, traces []*Trace) ([]byte, error) {
	spans := make([]otlpSpan, 0, len(traces)*4)
	for _, tr := range traces {
		traceID, recs := tr.Records()
		for _, rec := range recs {
			s := otlpSpan{
				TraceID:           traceID,
				SpanID:            rec.SpanID,
				ParentSpanID:      rec.ParentSpanID,
				Name:              rec.Name,
				Kind:              otlpKindInternal,
				StartTimeUnixNano: unixNano(rec.Start),
				EndTimeUnixNano:   unixNano(rec.End),
			}
			for _, a := range rec.Attrs {
				s.Attributes = append(s.Attributes, otlpKeyValue{Key: a.Key, Value: otlpAnyValue{StringValue: a.Value}})
			}
			if rec.Root {
				s.Kind = otlpKindServer
				switch outcome := attrValue(rec.Attrs, "outcome"); outcome {
				case "", "ok":
					s.Status = &otlpStatus{Code: otlpStatusOK}
				default:
					s.Status = &otlpStatus{Code: otlpStatusError, Message: outcome}
				}
			}
			spans = append(spans, s)
		}
	}
	payload := otlpTracePayload{ResourceSpans: []otlpResourceSpans{{
		Resource:   otlpResourceFor(service),
		ScopeSpans: []otlpScopeSpans{{Scope: otlpScope{Name: otlpScopeName}, Spans: spans}},
	}}}
	return json.Marshal(payload)
}

func attrValue(attrs []Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// OTLPMetricsRequest marshals one registry snapshot as an
// ExportMetricsServiceRequest: counters as cumulative monotone sums,
// gauges as gauges, histograms as cumulative histogram points carrying
// their per-bucket exemplars.
func OTLPMetricsRequest(service string, snaps []FamilySnapshot, start, now time.Time) ([]byte, error) {
	startNano, nowNano := unixNano(start), unixNano(now)
	metrics := make([]otlpMetric, 0, len(snaps))
	for _, f := range snaps {
		m := otlpMetric{Name: f.Name, Description: f.Help}
		switch f.Typ {
		case "counter":
			sum := &otlpSum{AggregationTemporality: otlpTemporalityCumulative, IsMonotonic: true}
			for _, p := range f.Points {
				sum.DataPoints = append(sum.DataPoints, otlpNumberPoint{
					Attributes:    pointAttrs(f.Label, p.Label),
					StartUnixNano: startNano,
					TimeUnixNano:  nowNano,
					AsDouble:      float64(p.Value),
				})
			}
			m.Sum = sum
		case "gauge":
			g := &otlpGauge{}
			for _, p := range f.Points {
				g.DataPoints = append(g.DataPoints, otlpNumberPoint{
					Attributes:   pointAttrs(f.Label, p.Label),
					TimeUnixNano: nowNano,
					AsDouble:     float64(p.Value),
				})
			}
			m.Gauge = g
		case "histogram":
			h := &otlpHistogram{AggregationTemporality: otlpTemporalityCumulative}
			for _, p := range f.Points {
				hp := otlpHistogramPoint{
					Attributes:     pointAttrs(f.Label, p.Label),
					StartUnixNano:  startNano,
					TimeUnixNano:   nowNano,
					Count:          strconv.FormatInt(p.Count, 10),
					Sum:            p.Sum,
					BucketCounts:   make([]string, len(p.Buckets)),
					ExplicitBounds: p.Bounds,
				}
				for i, n := range p.Buckets {
					hp.BucketCounts[i] = strconv.FormatInt(n, 10)
				}
				for _, ex := range p.Exemplars {
					if ex == nil {
						continue
					}
					hp.Exemplars = append(hp.Exemplars, otlpExemplar{
						TraceID:      ex.TraceID,
						TimeUnixNano: nowNano,
						AsDouble:     ex.Value,
					})
				}
				h.DataPoints = append(h.DataPoints, hp)
			}
			m.Histogram = h
		default:
			continue
		}
		metrics = append(metrics, m)
	}
	payload := otlpMetricsPayload{ResourceMetrics: []otlpResourceMetrics{{
		Resource:     otlpResourceFor(service),
		ScopeMetrics: []otlpScopeMetrics{{Scope: otlpScope{Name: otlpScopeName}, Metrics: metrics}},
	}}}
	return json.Marshal(payload)
}

func pointAttrs(label, value string) []otlpKeyValue {
	if label == "" {
		return nil
	}
	return []otlpKeyValue{{Key: label, Value: otlpAnyValue{StringValue: value}}}
}
