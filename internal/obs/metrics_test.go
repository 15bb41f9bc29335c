package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.String()
}

func TestCounterRendering(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("x_total", "Things.")
	c.Inc()
	c.Add(4)
	out := render(t, r)
	want := "# HELP x_total Things.\n# TYPE x_total counter\nx_total 5\n"
	if out != want {
		t.Fatalf("render mismatch:\n got %q\nwant %q", out, want)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("esc_total", "line one\nback\\slash", func() int64 { return 1 })
	out := render(t, r)
	if !strings.Contains(out, `# HELP esc_total line one\nback\\slash`+"\n") {
		t.Fatalf("HELP not escaped: %q", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("escaped newline leaked into output: %q", out)
	}
}

func TestCounterVecRendering(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("errs_total", "Errors by class.", "class")
	v.With("5xx").Add(2)
	v.With("4xx").Inc()
	out := render(t, r)
	// Label values render sorted, so scrapes are deterministic.
	i4, i5 := strings.Index(out, `errs_total{class="4xx"} 1`), strings.Index(out, `errs_total{class="5xx"} 2`)
	if i4 < 0 || i5 < 0 || i4 > i5 {
		t.Fatalf("vec rendering wrong:\n%s", out)
	}
	if v.With("4xx") != v.With("4xx") {
		t.Fatal("With not stable")
	}
}

// TestHistogramZeroObservations: an untouched histogram must still render
// a full, valid family — all buckets 0, sum 0, count 0.
func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 1})
	out := render(t, r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 0`,
		`lat_seconds_bucket{le="1"} 0`,
		`lat_seconds_bucket{le="+Inf"} 0`,
		"lat_seconds_sum 0",
		"lat_seconds_count 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaries: a value equal to a bucket bound belongs to that
// bucket (le is inclusive), and values beyond every bound land only in
// +Inf.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "H.", []float64{0.1, 1, 10})
	h.Observe(0.1) // exactly on the first bound: le="0.1" must include it
	h.Observe(0.5)
	h.Observe(10) // exactly on the last bound
	h.Observe(99) // overflow: +Inf only
	out := render(t, r)
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="1"} 2`,
		`h_seconds_bucket{le="10"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		"h_seconds_count 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got, want := h.Sum(), 0.1+0.5+10+99; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

// TestHistogramConcurrent hammers one histogram from 8 goroutines; under
// -race this doubles as the data-race check for the CAS-maintained sum.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("c_seconds", "C.", []float64{1, 2, 4})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w%5) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
	// Each goroutine contributes perWorker*(w%5+0.5); all addends are
	// exactly representable, so the sum must be exact too.
	want := 0.0
	for w := 0; w < workers; w++ {
		want += perWorker * (float64(w%5) + 0.5)
	}
	if got := h.Sum(); got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("req_seconds", "Req.", "endpoint", []float64{1})
	v.With("GET /v1/x").Observe(0.5)
	v.With(`odd"label`).Observe(2)
	out := render(t, r)
	if !strings.Contains(out, `req_seconds_bucket{endpoint="GET /v1/x",le="1"} 1`+"\n") {
		t.Errorf("labeled bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `req_seconds_sum{endpoint="GET /v1/x"} 0.5`+"\n") {
		t.Errorf("labeled sum missing:\n%s", out)
	}
	if !strings.Contains(out, `req_seconds_bucket{endpoint="odd\"label",le="+Inf"} 1`+"\n") {
		t.Errorf("label escaping missing:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "A.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "B.")
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, "app_")
	out := render(t, r)
	for _, name := range []string{"app_goroutines", "app_heap_alloc_bytes", "app_heap_objects", "app_gc_cycles_total"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("missing runtime gauge %s:\n%s", name, out)
		}
	}
}

func TestGaugeVecRendering(t *testing.T) {
	r := NewRegistry()
	v := r.NewGaugeVec("inflight", "Inflight by class.", "class")
	v.With("audit").Add(3)
	v.With("read").Inc()
	v.With("audit").Dec()
	out := render(t, r)
	want := "# HELP inflight Inflight by class.\n# TYPE inflight gauge\n" +
		`inflight{class="audit"} 2` + "\n" + `inflight{class="read"} 1` + "\n"
	if out != want {
		t.Fatalf("render mismatch:\n got %q\nwant %q", out, want)
	}
}

func TestGaugeSet(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("level", "A level.")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("Value() = %d, want 5", g.Value())
	}
	if !strings.Contains(render(t, r), "level 5\n") {
		t.Fatal("gauge sample missing from render")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", q)
	}
	// 10 observations uniformly in (1,2]: the median interpolates to the
	// middle of that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if q := h.Quantile(0.5); q != 1.5 {
		t.Fatalf("single-bucket median = %v, want 1.5", q)
	}
	// Add 10 observations in (4,8]: p25 stays in the first bucket, p75
	// lands in the (4,8] bucket, p100 hits its upper bound.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if q := h.Quantile(0.25); q < 1 || q > 2 {
		t.Fatalf("p25 = %v, want inside (1,2]", q)
	}
	if q := h.Quantile(0.75); q < 4 || q > 8 {
		t.Fatalf("p75 = %v, want inside (4,8]", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want 8", q)
	}
	// An observation beyond every bound caps at the top finite bound.
	h.Observe(100)
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 with +Inf observation = %v, want top finite bound 8", q)
	}
}

// goldenRegistry registers one family per constructor, in the state the
// exposition golden tests pin: values at and beyond 1e6, a counter
// without the _total suffix, a label value that needs escaping, an
// untouched vec and histograms with and without exemplars.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.NewCounter("jobs_total", "Jobs.").Add(1234567)
	r.NewCounterFunc("uploads", "Uploads; no _total suffix.", func() int64 { return 3 })
	r.NewGaugeFunc("heap_bytes", "Heap.\nSecond line, back\\slash.", func() int64 { return 2500000 })
	r.NewGauge("depth", "Depth.").Set(-2)
	cv := r.NewCounterVec("errs_total", "Errors by class.", "class")
	cv.With("5xx").Add(2)
	cv.With("odd\"cl\\ass\n").Inc()
	gv := r.NewGaugeVec("inflight", "Inflight by class.", "class")
	gv.With("read").Set(1000000)
	gv.With("audit").Set(1)
	r.NewCounterVec("empty_total", "Never touched.", "class")
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.5, 1})
	h.ObserveExemplar(0.25, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.Observe(0.75)
	h.Observe(2.5)
	hv := r.NewHistogramVec("req_seconds", "Request latency.", "route", []float64{0.001, 2.5e6})
	hv.With("GET /x").Observe(0.0005)
	hv.With(`a"b`).ObserveExemplar(3e6, "4bf92f3577b34da6a3ce929d0e0e4736")
	return r
}

// TestExpositionGolden pins the 0.0.4 scrape of goldenRegistry byte for
// byte: HELP before TYPE, counter family names kept whole (with or without
// _total), integers printed in full, label values escaped, no samples for
// an untouched vec, cumulative histogram buckets with float bounds and
// sums, and no exemplars.
func TestExpositionGolden(t *testing.T) {
	want := `# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total 1234567
# HELP uploads Uploads; no _total suffix.
# TYPE uploads counter
uploads 3
# HELP heap_bytes Heap.\nSecond line, back\\slash.
# TYPE heap_bytes gauge
heap_bytes 2500000
# HELP depth Depth.
# TYPE depth gauge
depth -2
# HELP errs_total Errors by class.
# TYPE errs_total counter
errs_total{class="5xx"} 2
errs_total{class="odd\"cl\\ass\n"} 1
# HELP inflight Inflight by class.
# TYPE inflight gauge
inflight{class="audit"} 1
inflight{class="read"} 1000000
# HELP empty_total Never touched.
# TYPE empty_total counter
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 3.5
lat_seconds_count 3
# HELP req_seconds Request latency.
# TYPE req_seconds histogram
req_seconds_bucket{route="GET /x",le="0.001"} 1
req_seconds_bucket{route="GET /x",le="2.5e+06"} 1
req_seconds_bucket{route="GET /x",le="+Inf"} 1
req_seconds_sum{route="GET /x"} 0.0005
req_seconds_count{route="GET /x"} 1
req_seconds_bucket{route="a\"b",le="0.001"} 0
req_seconds_bucket{route="a\"b",le="2.5e+06"} 0
req_seconds_bucket{route="a\"b",le="+Inf"} 1
req_seconds_sum{route="a\"b"} 3e+06
req_seconds_count{route="a\"b"} 1
`
	if got := render(t, goldenRegistry()); got != want {
		t.Fatalf("0.0.4 render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestVecConcurrentWithScrape creates new label values on every vector
// kind while another goroutine scrapes both text formats; under -race it
// is the data-race check for the shared vec and the snapshot path. Every
// scrape must stay well-formed, and the final one must list every value.
func TestVecConcurrentWithScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("c_total", "C.", "k")
	gv := r.NewGaugeVec("g", "G.", "k")
	hv := r.NewHistogramVec("h_seconds", "H.", "k", []float64{1})
	const values = 200
	started, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		for {
			select {
			case <-done:
				return
			default:
			}
			var b004, bom bytes.Buffer
			r.WriteTo(&b004)
			r.WriteOpenMetrics(&bom)
			if err := ValidateOpenMetrics(bom.Bytes()); err != nil {
				t.Errorf("concurrent OpenMetrics scrape invalid: %v", err)
				return
			}
		}
	}()
	<-started
	for i := 0; i < values; i++ {
		k := strconv.Itoa(i)
		cv.With(k).Inc()
		gv.With(k).Set(int64(i))
		hv.With(k).ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")
	}
	close(done)
	wg.Wait()
	out := render(t, r)
	for _, want := range []string{`c_total{k="199"} 1`, `g{k="199"} 199`, `h_seconds_count{k="199"} 1`} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("final scrape lacks %q", want)
		}
	}
	if n := strings.Count(out, "\nc_total{"); n != values {
		t.Errorf("final scrape has %d counter series, want %d", n, values)
	}
}
