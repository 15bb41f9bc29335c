package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rankfair"
	"rankfair/internal/obs"
)

// submitAudit posts one audit request and returns the accepted job view.
func submitAudit(t *testing.T, ts *httptest.Server, dataset string, params rankfair.AuditParams) JobView {
	t.Helper()
	var view JobView
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/audits", AuditRequest{
		Dataset: dataset, Ranker: scoreRanker(), Params: params,
	}, &view)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return view
}

// TestAuditReportCarriesStats: every completed audit response carries the
// search statistics block, and identical audits served from the cache
// carry the same one (the stats describe the computation, not the serve).
func TestAuditReportCarriesStats(t *testing.T) {
	_, ts := testServer(t)
	info := upload(t, ts, biasedCSV(200))
	params := rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8}

	view := submitAudit(t, ts, info.ID, params)
	report := awaitReport(t, ts, view.ID)
	if report.Stats == nil {
		t.Fatal("completed audit report has no stats block")
	}
	if report.Stats.Strategy != "index" {
		t.Errorf("stats strategy = %q, want %q (analysts are admitted pre-warmed)", report.Stats.Strategy, "index")
	}
	work := report.Stats.NodesExpanded + report.Stats.PrunedSize + report.Stats.PrunedBound
	if work == 0 {
		t.Error("stats report zero lattice work for a non-trivial audit")
	}

	// A second identical audit is a cache hit and must carry identical stats.
	view2 := submitAudit(t, ts, info.ID, params)
	report2 := awaitReport(t, ts, view2.ID)
	a, _ := json.Marshal(report.Stats)
	b, _ := json.Marshal(report2.Stats)
	if !bytes.Equal(a, b) {
		t.Errorf("cache-hit stats differ:\n%s\n%s", a, b)
	}
}

// TestTraceEndpoint: a finished job's span tree is served from the trace
// ring, rooted at submission with queue and run phases, and the computing
// job's run span nests the analyst/search/serialize phases.
func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t)
	info := upload(t, ts, biasedCSV(120))
	view := submitAudit(t, ts, info.ID,
		rankfair.AuditParams{Measure: "global", MinSize: 10, KMin: 5, KMax: 20, Lower: constants(5, 20, 2)})
	awaitReport(t, ts, view.ID)

	var tree obs.TraceTree
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/audits/"+view.ID+"/trace", nil, &tree); code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if tree.ID != view.ID {
		t.Errorf("trace id = %q, want %q", tree.ID, view.ID)
	}
	if tree.Root.Name != "audit" {
		t.Errorf("root span = %q, want audit", tree.Root.Name)
	}
	phases := map[string]bool{}
	for _, c := range tree.Root.Children {
		phases[c.Name] = true
		if c.Name == "run" {
			for _, cc := range c.Children {
				phases[cc.Name] = true
			}
		}
	}
	for _, want := range []string{"queue", "run", "analyst", "search", "serialize"} {
		if !phases[want] {
			t.Errorf("trace is missing the %q phase; got %v", want, phases)
		}
	}

	// Unknown job IDs (and not-yet-finished ones) 404.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/audits/job-999999/trace", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET unknown trace: status %d, want 404", code)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9.eE+-]+$`)

// TestMetricsExposition: the scrape carries the histogram families in
// valid text format, the split error classes, the fleet-level search
// counters (counted once per computation, not per serve), and every
// response carries a correlation ID.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t)
	info := upload(t, ts, biasedCSV(120))
	params := rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8}
	awaitReport(t, ts, submitAudit(t, ts, info.ID, params).ID)
	awaitReport(t, ts, submitAudit(t, ts, info.ID, params).ID) // cache hit

	// One 4xx to populate the error class counter.
	resp404, err := http.Get(ts.URL + "/v1/datasets/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("probe: status %d, want 404", resp404.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response has no X-Request-ID header")
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	// Structural validity: every line is a comment or a sample, and every
	// sample's family was announced by HELP and TYPE lines before it.
	announced := map[string]bool{}
	histograms := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			announced[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if !announced[f[0]] {
				t.Errorf("TYPE before HELP for %s", f[0])
			}
			if f[1] == "histogram" {
				histograms[f[0]] = true
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if bn, ok := strings.CutSuffix(name, suf); ok && announced[bn] {
				base = bn
				break
			}
		}
		if !announced[base] {
			t.Errorf("sample %q has no HELP/TYPE announcement", name)
		}
	}
	if len(histograms) < 3 {
		t.Errorf("scrape has %d histogram families, want >= 3: %v", len(histograms), histograms)
	}

	for _, want := range []string{
		`rankfaird_request_errors_total{class="4xx"} 1`,
		`rankfaird_request_duration_seconds_bucket{route="POST /v1/audits",le="+Inf"} 2`,
		`rankfaird_job_run_seconds_count 2`,
		`rankfaird_job_queue_wait_seconds_count 2`,
		`rankfaird_decode_seconds_count 1`,
		`rankfaird_search_total{strategy="index"} 1`, // second audit was a cache hit
		"rankfaird_search_nodes_expanded_total",
		"rankfaird_search_pruned_total{reason=",
		"rankfaird_analyst_index_bytes",
		"rankfaird_goroutines",
		"rankfaird_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// syncWriter is a mutex-guarded byte buffer usable as an slog sink from
// worker goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSlowAuditLogging: an audit running past the threshold logs a warn
// record carrying the span tree.
func TestSlowAuditLogging(t *testing.T) {
	var sink syncWriter
	logger := slog.New(slog.NewTextHandler(&sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	svc := mustNew(t, Config{Workers: 2, CacheEntries: 8, MaxDatasets: 4, Logger: logger, SlowAudit: time.Nanosecond})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})

	info := upload(t, ts, biasedCSV(120))
	view := submitAudit(t, ts, info.ID,
		rankfair.AuditParams{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8})
	awaitReport(t, ts, view.ID)

	// The warning is written before the job turns terminal, so it is
	// there once the report is.
	out := sink.String()
	if !strings.Contains(out, "slow audit") {
		t.Fatalf("no slow-audit warning in log output:\n%s", out)
	}
	if !strings.Contains(out, `"name":"search"`) && !strings.Contains(out, `\"name\":\"search\"`) {
		t.Errorf("slow-audit record carries no span tree:\n%s", out)
	}
}

// BenchmarkMetricsScrape renders the service registry as one 0.0.4 scrape
// body, the work behind GET /metrics, and reports its allocations.
func BenchmarkMetricsScrape(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	svc := mustNew(b, Config{Workers: 1, Logger: quiet})
	defer svc.Shutdown(context.Background())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svc.obs.reg.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
