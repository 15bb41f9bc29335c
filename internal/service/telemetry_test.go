package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rankfair"
	"rankfair/internal/obs"
)

const (
	clientTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	clientTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
)

// newJSONLogger builds the JSON wide-event logger main.go installs for
// -audit-log, pointed at a test sink.
func newJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// doTraced performs a request carrying the given traceparent header and
// returns the response (body fully read) plus its bytes.
func doTraced(t *testing.T, method, url, traceparent string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestTraceparentPropagation: a request carrying a W3C traceparent keeps
// its trace ID end to end — the response header echoes it, and the job's
// exported span tree roots under the caller's span. A request without
// one still gets a stable derived identity.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := testServer(t)
	info := upload(t, ts, biasedCSV(120))

	resp, raw := doTraced(t, http.MethodPost, ts.URL+"/v1/audits", clientTraceparent, AuditRequest{
		Dataset: info.ID, Ranker: scoreRanker(),
		Params: rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	tp := resp.Header.Get("Traceparent")
	gotTrace, gotSpan, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response Traceparent %q does not parse", tp)
	}
	if gotTrace != clientTraceID {
		t.Errorf("response trace ID = %q, want the client's %q", gotTrace, clientTraceID)
	}
	if gotSpan == "00f067aa0ba902b7" {
		t.Error("response span ID echoes the client's span instead of a server span")
	}
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	awaitReport(t, ts, view.ID)

	// The finished job's trace adopted the client identity: same trace
	// ID, rooted under the client's span.
	var tree obs.TraceTree
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/audits/"+view.ID+"/trace", nil, &tree); code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if tree.TraceID != clientTraceID {
		t.Errorf("job trace ID = %q, want adopted %q", tree.TraceID, clientTraceID)
	}
	if tree.ParentSpan != "00f067aa0ba902b7" {
		t.Errorf("job root parent span = %q, want the client's span", tree.ParentSpan)
	}
	if got := tree.Root.Attrs; len(got) == 0 {
		t.Error("root span has no attributes; want outcome/cache")
	}

	// No traceparent: the response still carries a parseable identity,
	// deterministic in the request ID.
	resp2, _ := doTraced(t, http.MethodGet, ts.URL+"/v1/datasets", "", nil)
	tid2, _, ok := obs.ParseTraceparent(resp2.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("derived Traceparent %q does not parse", resp2.Header.Get("Traceparent"))
	}
	if want := obs.DeriveTraceID(resp2.Header.Get("X-Request-ID")); tid2 != want {
		t.Errorf("derived trace ID = %q, want %q (sha-256 of the request ID)", tid2, want)
	}
}

// TestErrorEnvelopeCarriesTraceID: every error path's JSON envelope
// echoes the request's trace ID so a failed call can be joined to its
// distributed trace without header spelunking.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	_, ts := testServer(t)

	for name, probe := range map[string]struct {
		method, path string
		body         any
		wantStatus   int
	}{
		"not_found":       {http.MethodGet, "/v1/datasets/nope", nil, http.StatusNotFound},
		"bad_request":     {http.MethodPost, "/v1/audits", []string{"not", "an", "object"}, http.StatusBadRequest},
		"trace_not_found": {http.MethodGet, "/v1/audits/job-999999/trace", nil, http.StatusNotFound},
	} {
		resp, raw := doTraced(t, probe.method, ts.URL+probe.path, clientTraceparent, probe.body)
		if resp.StatusCode != probe.wantStatus {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, probe.wantStatus, raw)
			continue
		}
		var envelope struct {
			Error struct {
				TraceID string `json:"trace_id"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Errorf("%s: envelope does not decode: %v: %s", name, err, raw)
			continue
		}
		if envelope.Error.TraceID != clientTraceID {
			t.Errorf("%s: envelope trace_id = %q, want %q", name, envelope.Error.TraceID, clientTraceID)
		}
		if _, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent")); !ok {
			t.Errorf("%s: error response has no parseable Traceparent", name)
		}
	}
}

// TestWideEventAuditLog: one structured record per terminal audit with
// the full correlation set — request and trace IDs, dataset coordinates,
// phase durations, search stats and the cache disposition.
func TestWideEventAuditLog(t *testing.T) {
	var sink syncWriter
	svc := mustNew(t, Config{
		Workers: 2, CacheEntries: 8, MaxDatasets: 4,
		AuditLog: newJSONLogger(&sink),
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})

	info := upload(t, ts, biasedCSV(120))
	params := rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8}
	resp, raw := doTraced(t, http.MethodPost, ts.URL+"/v1/audits", clientTraceparent, AuditRequest{
		Dataset: info.ID, Ranker: scoreRanker(), Params: params,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	// A record is written before its job turns terminal, so it is there
	// once the report is.
	awaitReport(t, ts, view.ID)
	if n := strings.Count(sink.String(), "\n"); n != 1 {
		t.Fatalf("audit log has %d records once the first report is served, want 1:\n%s", n, sink.String())
	}
	awaitReport(t, ts, submitAudit(t, ts, info.ID, params).ID) // cache hit

	var events []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("audit log line is not JSON: %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("audit log has %d records, want 2:\n%s", len(events), sink.String())
	}

	first := events[0]
	for key, want := range map[string]any{
		"job":             view.ID,
		"request_id":      resp.Header.Get("X-Request-ID"),
		"trace_id":        clientTraceID,
		"dataset":         info.ID,
		"dataset_hash":    info.Hash,
		"dataset_version": float64(info.Version),
		"measure":         "prop",
		"outcome":         "ok",
		"cache":           "miss",
		"strategy":        "index",
	} {
		if got := first[key]; got != want {
			t.Errorf("wide event %s = %v, want %v", key, got, want)
		}
	}
	for _, key := range []string{"queue_ms", "run_ms", "serialize_ms", "workers", "nodes_expanded"} {
		if _, ok := first[key]; !ok {
			t.Errorf("wide event is missing %q: %v", key, first)
		}
	}
	if run, sz := first["run_ms"].(float64), first["serialize_ms"].(float64); sz <= 0 || run < sz {
		t.Errorf("phase durations implausible: run_ms=%v serialize_ms=%v", run, sz)
	}
	if events[1]["cache"] != "hit" {
		t.Errorf("second audit's wide event cache = %v, want hit", events[1]["cache"])
	}
	if events[1]["trace_id"] == clientTraceID {
		t.Error("cache-hit audit reuses the first request's trace ID")
	}
}

// TestShedJobTraceOutcome: a job shed at dequeue (its budget consumed by
// the queue wait) still lands a trace in the ring with the terminal
// outcome on the root span, and its wide event records the shed.
func TestShedJobTraceOutcome(t *testing.T) {
	var sink syncWriter
	m := NewManager(1, 64)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	traces := obs.NewTraceStore(64)
	m.SetObserver(&JobObserver{Traces: traces, AuditLog: newJSONLogger(&sink)})

	block := make(chan struct{})
	holder := func(ctx context.Context) (*AuditResult, bool, error) {
		<-block
		return &AuditResult{}, false, nil
	}
	doomed := func(ctx context.Context) (*AuditResult, bool, error) {
		return &AuditResult{}, false, nil
	}
	hv, err := m.Submit("ds", rankfair.AuditParams{}, holder)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := m.Submit("ds", rankfair.AuditParams{}, doomed,
		WithBudget(5*time.Millisecond), WithMeta(JobMeta{TraceID: clientTraceID, RequestID: "req-shed"}))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the doomed job's budget expire while queued
	close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, hv.ID); err != nil {
		t.Fatal(err)
	}
	view, err := m.Wait(ctx, dv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != JobFailed || view.ErrorCode != CodeShed {
		t.Fatalf("doomed job ended %s/%s, want failed/shed", view.Status, view.ErrorCode)
	}

	tr, ok := traces.Get(dv.ID)
	if !ok {
		t.Fatal("shed job has no trace in the ring")
	}
	tree := tr.Tree()
	if got := tree.Root.Attrs; len(got) == 0 || got[0].Key != "outcome" || got[0].Value != "shed" {
		t.Errorf("shed root span attrs = %v, want outcome=shed", got)
	}
	if tree.TraceID != clientTraceID {
		t.Errorf("shed trace ID = %q, want adopted %q", tree.TraceID, clientTraceID)
	}
	if !strings.Contains(sink.String(), `"outcome":"shed"`) || !strings.Contains(sink.String(), `"request_id":"req-shed"`) {
		t.Errorf("wide event for the shed job is missing:\n%s", sink.String())
	}

	// A budget expiring mid-run lands the same way: terminal outcome on
	// the root span, deadline_exceeded in the wide event.
	slow := func(ctx context.Context) (*AuditResult, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	sv, err := m.Submit("ds", rankfair.AuditParams{}, slow, WithBudget(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	view, err = m.Wait(ctx, sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != JobFailed || view.ErrorCode != CodeDeadlineExceeded {
		t.Fatalf("slow job ended %s/%s, want failed/deadline_exceeded", view.Status, view.ErrorCode)
	}
	tr, ok = traces.Get(sv.ID)
	if !ok {
		t.Fatal("deadlined job has no trace in the ring")
	}
	if got := tr.Tree().Root.Attrs; len(got) == 0 || got[0].Value != CodeDeadlineExceeded {
		t.Errorf("deadlined root span attrs = %v, want outcome=%s", got, CodeDeadlineExceeded)
	}
	if !strings.Contains(sink.String(), `"outcome":"deadline_exceeded"`) {
		t.Errorf("wide event for the deadlined job is missing:\n%s", sink.String())
	}
}

// TestOpenMetricsNegotiation: an OpenMetrics Accept header switches the
// scrape to the 1.0 exposition (validated strictly, exemplars attached),
// while the default scrape stays the plain 0.0.4 text format with no
// exemplar syntax — byte-compatible with pre-exemplar consumers.
func TestOpenMetricsNegotiation(t *testing.T) {
	_, ts := testServer(t)
	info := upload(t, ts, biasedCSV(120))
	view := submitAudit(t, ts, info.ID,
		rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8})
	awaitReport(t, ts, view.ID)

	get := func(accept string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}

	respOM, om := get("application/openmetrics-text; version=1.0.0")
	if got := respOM.Header.Get("Content-Type"); got != obs.ContentTypeOpenMetrics {
		t.Errorf("OM Content-Type = %q", got)
	}
	if err := obs.ValidateOpenMetrics([]byte(om)); err != nil {
		t.Fatalf("OM scrape fails strict validation: %v", err)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OM scrape is not terminated by # EOF")
	}
	if !strings.Contains(om, `# {trace_id="`) {
		t.Error("OM scrape carries no exemplars after a completed audit")
	}

	resp004, plain := get("")
	if got := resp004.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("default Content-Type = %q", got)
	}
	if strings.Contains(plain, "trace_id") || strings.Contains(plain, "# EOF") {
		t.Error("exemplar syntax leaked into the 0.0.4 exposition")
	}
	// The negotiation is per-request, not sticky: a second default scrape
	// after the OM one differs only in sample values, never in shape.
	if strings.Contains(plain, "#") && !strings.Contains(plain, "# HELP") {
		t.Error("default scrape shape changed")
	}
}

// collectorState is a minimal OTLP/HTTP collector fake for service-level
// tests: it records request counts per path and can stall forever.
type collectorState struct {
	mu     sync.Mutex
	traces int
	stall  chan struct{} // non-nil: every request blocks until closed
	// first, when non-nil, is closed as the first request arrives: with
	// stall set, the exporter is then wedged in that request.
	first     chan struct{}
	firstOnce sync.Once
}

func (c *collectorState) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.first != nil {
			c.firstOnce.Do(func() { close(c.first) })
		}
		if c.stall != nil {
			<-c.stall
		}
		c.mu.Lock()
		if r.URL.Path == "/v1/traces" {
			c.traces++
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
}

func (c *collectorState) traceCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traces
}

// TestExporterDoesNotChangeReports: the audit report served with OTLP
// export enabled is byte-identical to the one served without it — the
// exporter observes, never participates.
func TestExporterDoesNotChangeReports(t *testing.T) {
	collector := &collectorState{}
	cts := httptest.NewServer(collector.handler())
	t.Cleanup(cts.Close)

	fetch := func(cfg Config) []byte {
		svc := mustNew(t, cfg)
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		info := upload(t, ts, biasedCSV(150))
		view := submitAudit(t, ts, info.ID,
			rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8})
		awaitReport(t, ts, view.ID)
		resp, err := http.Get(ts.URL + "/v1/audits/" + view.ID + "/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return raw
	}

	plain := fetch(Config{Workers: 2, CacheEntries: 8, MaxDatasets: 4})
	exported := fetch(Config{Workers: 2, CacheEntries: 8, MaxDatasets: 4, OTLPEndpoint: cts.URL})
	if !bytes.Equal(plain, exported) {
		t.Errorf("report changed with export enabled:\n%s\n%s", plain, exported)
	}
	// Shutdown drains the queue, so by now the collector saw the trace.
	if collector.traceCount() == 0 {
		t.Error("collector received no trace export")
	}
}

// TestStalledCollectorNeverBlocksAudits: with the collector wedged and a
// one-slot export queue, audits must keep completing at full speed and
// the overflow must surface as drops, not latency.
func TestStalledCollectorNeverBlocksAudits(t *testing.T) {
	collector := &collectorState{stall: make(chan struct{}), first: make(chan struct{})}
	cts := httptest.NewServer(collector.handler())
	t.Cleanup(cts.Close)

	// The aggressive metric interval wedges the export goroutine in a
	// stalled POST almost immediately; audits start only once it is, so
	// finished-audit traces pile into the one-slot queue with nothing
	// draining it.
	svc := mustNew(t, Config{
		Workers: 2, CacheEntries: 8, MaxDatasets: 4,
		OTLPEndpoint: cts.URL, OTLPQueue: 1, OTLPInterval: time.Millisecond,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	// Registered last → runs first: release the collector before Shutdown
	// so the exporter's drain isn't waiting out its HTTP timeout.
	t.Cleanup(func() { close(collector.stall) })

	info := upload(t, ts, biasedCSV(120))
	select {
	case <-collector.first:
	case <-time.After(10 * time.Second):
		t.Fatal("exporter never reached the collector")
	}
	start := time.Now()
	for i := 0; i < 8; i++ {
		// Distinct KMax per audit defeats the result cache: every audit
		// computes, finishes, and enqueues a trace at the wedged exporter.
		view := submitAudit(t, ts, info.ID,
			rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 12 + i, Alpha: 0.8})
		awaitReport(t, ts, view.ID)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("audits took %v against a stalled collector", elapsed)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "rankfaird_otlp_dropped_total") {
		t.Fatal("scrape is missing rankfaird_otlp_dropped_total")
	}
	var dropped float64
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "rankfaird_otlp_dropped_total ") {
			fmt.Sscanf(line, "rankfaird_otlp_dropped_total %f", &dropped)
		}
	}
	if dropped == 0 {
		t.Error("stalled collector produced no drops; the enqueue may be blocking")
	}
}

// TestTraceRingEvictionConcurrentGet hammers a one-slot trace ring with
// concurrent finishing audits and trace reads — the eviction path racing
// GET /v1/audits/{id}/trace must stay data-race free (run under -race).
func TestTraceRingEvictionConcurrentGet(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4, CacheEntries: 8, MaxDatasets: 4, TraceEntries: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	info := upload(t, ts, biasedCSV(100))

	const auditors = 4
	ids := make(chan string, auditors*8)
	var wg sync.WaitGroup
	for g := 0; g < auditors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var view JobView
				code := doJSON(t, http.MethodPost, ts.URL+"/v1/audits", AuditRequest{
					Dataset: info.ID, Ranker: scoreRanker(),
					Params: rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 12 + g*8 + i, Alpha: 0.8},
				}, &view)
				if code != http.StatusAccepted {
					t.Errorf("submit: status %d", code)
					return
				}
				awaitReport(t, ts, view.ID)
				ids <- view.ID
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Readers chase the writers: every finished ID is fetched repeatedly
	// while later audits evict it from the one-slot ring. 200 (still
	// resident) and 404 (evicted) are both correct; racing is not.
	var seen []string
	for {
		select {
		case id := <-ids:
			seen = append(seen, id)
		case <-done:
			for _, id := range seen {
				resp, err := http.Get(ts.URL + "/v1/audits/" + id + "/trace")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("GET trace %s: status %d", id, resp.StatusCode)
				}
			}
			return
		default:
			if len(seen) > 0 {
				resp, err := http.Get(ts.URL + "/v1/audits/" + seen[len(seen)-1] + "/trace")
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
}
