package obs

import (
	"bytes"
	"strings"
	"testing"
)

func renderOM(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	return buf.String()
}

// TestOpenMetricsGolden pins the exact OM 1.0 rendering: counter family
// names drop _total while samples keep it, counter and gauge values print
// as integers however large, exemplars attach to the landing bucket only,
// and the body ends in # EOF.
func TestOpenMetricsGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs.")
	c.Add(3)
	g := r.NewGauge("depth", "Depth.")
	g.Set(2)
	r.NewCounter("bytes_total", "Bytes.").Add(1234567)
	r.NewGauge("heap_bytes", "Heap.").Set(2500000)
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.5, 1})
	h.ObserveExemplar(0.25, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.Observe(0.75)
	got := renderOM(t, r)
	want := `# TYPE jobs counter
# HELP jobs Jobs.
jobs_total 3
# TYPE depth gauge
# HELP depth Depth.
depth 2
# TYPE bytes counter
# HELP bytes Bytes.
bytes_total 1234567
# TYPE heap_bytes gauge
# HELP heap_bytes Heap.
heap_bytes 2500000
# TYPE lat_seconds histogram
# HELP lat_seconds Latency.
lat_seconds_bucket{le="0.5"} 1 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.25
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 2
lat_seconds_sum 1
lat_seconds_count 2
# EOF
`
	if got != want {
		t.Fatalf("OM render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateOpenMetrics([]byte(got)); err != nil {
		t.Fatalf("golden output fails own validator: %v", err)
	}
}

// TestOpenMetricsVectorsValidate renders labeled families (including a
// label value that needs escaping) plus runtime gauges and runs the
// strict validator over the result.
func TestOpenMetricsVectorsValidate(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, "app_")
	cv := r.NewCounterVec("errs_total", "Errors by class.", "class")
	cv.With("5xx").Add(2)
	cv.With(`odd"class\with`).Inc()
	gv := r.NewGaugeVec("inflight", "Inflight.", "class")
	gv.With("audit").Set(1)
	hv := r.NewHistogramVec("req_seconds", "Req.", "endpoint", []float64{0.5, 1})
	hv.With("GET /v1/x").ObserveExemplar(0.25, "4bf92f3577b34da6a3ce929d0e0e4736")
	hv.With("POST /v1/audits").Observe(3)
	out := renderOM(t, r)
	if err := ValidateOpenMetrics([]byte(out)); err != nil {
		t.Fatalf("validator rejected renderer output: %v\n%s", err, out)
	}
	if !strings.Contains(out, `req_seconds_bucket{endpoint="GET /v1/x",le="0.5"} 1 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.25`+"\n") {
		t.Fatalf("labeled exemplar bucket missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE errs counter\n") {
		t.Fatalf("counter family name not stripped:\n%s", out)
	}
}

// TestExemplarInvisibleIn004 proves the Prometheus 0.0.4 scrape is
// byte-identical whether observations carry exemplars or not — existing
// scrape consumers must never see a format change.
func TestExemplarInvisibleIn004(t *testing.T) {
	build := func(withExemplars bool) string {
		r := NewRegistry()
		h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.5, 1})
		v := r.NewHistogramVec("req_seconds", "Req.", "endpoint", []float64{1})
		for i, x := range []float64{0.25, 0.75, 3} {
			if withExemplars {
				h.ObserveExemplar(x, "4bf92f3577b34da6a3ce929d0e0e4736")
				v.With("GET /v1/x").ObserveExemplar(x, "4bf92f3577b34da6a3ce929d0e0e4736")
			} else {
				h.Observe(x)
				v.With("GET /v1/x").Observe(x)
			}
			_ = i
		}
		return render(t, r)
	}
	plain, ex := build(false), build(true)
	if plain != ex {
		t.Fatalf("0.0.4 scrape changed by exemplars:\nplain:\n%s\nexemplar:\n%s", plain, ex)
	}
	if strings.Contains(ex, "trace_id") {
		t.Fatal("exemplar leaked into 0.0.4 output")
	}
}

// TestExemplarLastWriteWins: the bucket keeps the most recent exemplar,
// and an empty trace ID records the observation without replacing it.
func TestExemplarLastWriteWins(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "H.", []float64{1})
	h.ObserveExemplar(0.5, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	h.ObserveExemplar(0.7, "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb")
	h.ObserveExemplar(0.9, "") // counts, but must not clobber the exemplar
	p := h.point("")
	if p.Count != 3 {
		t.Fatalf("Count = %d, want 3", p.Count)
	}
	if p.Exemplars[0] == nil || p.Exemplars[0].TraceID != "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" {
		t.Fatalf("exemplar = %+v, want trace bbbb... value 0.7", p.Exemplars[0])
	}
	if p.Exemplars[0].Value != 0.7 {
		t.Fatalf("exemplar value = %v, want 0.7", p.Exemplars[0].Value)
	}
}

// TestValidateOpenMetricsRejects feeds the strict parser malformed
// bodies it must refuse — each one a mistake the renderer could plausibly
// make if a future change regressed it.
func TestValidateOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"missing EOF", "# TYPE a gauge\na 1\n", "must end"},
		{"EOF mid-body", "# TYPE a gauge\n# EOF\na 1\n# EOF\n", "before end of body"},
		{"counter family keeps _total", "# TYPE a_total counter\na_total 1\n# EOF\n", "must not end in _total"},
		{"counter sample missing _total", "# TYPE a counter\na 1\n# EOF\n", "must end in _total"},
		{"sample before TYPE", "a 1\n# EOF\n", "before any TYPE"},
		{"sample outside family", "# TYPE a gauge\nb 1\n# EOF\n", "outside current family"},
		{"bad label escape", "# TYPE a gauge\na{x=\"\\t\"} 1\n# EOF\n", "invalid escape"},
		{"unterminated label block", "# TYPE a gauge\na{x=\"y\" 1\n# EOF\n", "expected ',' or '}'"},
		{"duplicate label", `# TYPE a gauge` + "\n" + `a{x="1",x="2"} 1` + "\n# EOF\n", "duplicate label"},
		{"trailing comma", `# TYPE a gauge` + "\n" + `a{x="1",} 1` + "\n# EOF\n", "trailing comma"},
		{"bad value", "# TYPE a gauge\na one\n# EOF\n", "bad value"},
		{"exemplar on gauge", "# TYPE a gauge\na 1 # {trace_id=\"f\"} 1\n# EOF\n", "exemplar on gauge"},
		{"exemplar on histogram sum", "# TYPE a histogram\na_bucket{le=\"+Inf\"} 1\na_sum 1 # {trace_id=\"f\"} 1\na_count 1\n# EOF\n", "outside _bucket"},
		{"bad exemplar syntax", "# TYPE a histogram\na_bucket{le=\"+Inf\"} 1 # trace 1\n# EOF\n", "exemplar missing label block"},
		{"bucket missing le", "# TYPE a histogram\na_bucket 1\n# EOF\n", "missing le"},
		{"non-cumulative buckets", "# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"+Inf\"} 3\n# EOF\n", "not cumulative"},
		{"missing +Inf bucket", "# TYPE a histogram\na_bucket{le=\"1\"} 1\na_count 1\n# EOF\n", "missing +Inf"},
		{"count disagrees with +Inf", "# TYPE a histogram\na_bucket{le=\"+Inf\"} 3\na_count 4\n# EOF\n", "_count"},
		{"descending bounds", "# TYPE a histogram\na_bucket{le=\"2\"} 1\na_bucket{le=\"1\"} 2\na_bucket{le=\"+Inf\"} 2\n# EOF\n", "not ascending"},
		{"duplicate family", "# TYPE a gauge\n# TYPE a gauge\n# EOF\n", "duplicate family"},
		{"stray comment", "# TYPE a gauge\n# random note\n# EOF\n", "stray comment"},
		{"empty line", "# TYPE a gauge\n\n# EOF\n", "empty line"},
		{"HELP outside block", "# TYPE a gauge\n# HELP b B.\n# EOF\n", "outside its TYPE"},
		{"bad HELP escape", "# TYPE a gauge\n# HELP a bad \\t escape\n# EOF\n", "invalid escape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateOpenMetrics([]byte(tc.body))
			if err == nil {
				t.Fatalf("validator accepted %q", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateOpenMetricsAccepts: spot-check legal bodies, including
// optional timestamps and exemplars with timestamps.
func TestValidateOpenMetricsAccepts(t *testing.T) {
	bodies := []string{
		"# EOF\n",
		"# TYPE a gauge\n# HELP a A.\na 1\n# EOF\n",
		"# TYPE a counter\na_total 5 1234.5\n# EOF\n",
		"# TYPE a histogram\na_bucket{le=\"1\"} 1 # {trace_id=\"f\"} 0.5 1234.5\na_bucket{le=\"+Inf\"} 1\na_sum 0.5\na_count 1\n# EOF\n",
		"# TYPE a counter\na_total 1 # {trace_id=\"f\"} 1\n# EOF\n",
	}
	for _, body := range bodies {
		if err := ValidateOpenMetrics([]byte(body)); err != nil {
			t.Errorf("validator rejected legal body %q: %v", body, err)
		}
	}
}
