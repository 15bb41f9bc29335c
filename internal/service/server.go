package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rankfair"
	"rankfair/internal/dataset"
	"rankfair/internal/obs"
)

// obsState bundles the observability core wired through the service: the
// metrics registry behind /metrics, per-phase latency histograms, the
// aggregated lattice-search counters fed by recordSearch, and the trace
// ring behind GET /v1/audits/{id}/trace. Every rankfaird_* series name is
// registered in this file — the CI metrics-lint step greps server.go and
// fails when a name here is missing from the README metric catalog.
type obsState struct {
	reg    *obs.Registry
	traces *obs.TraceStore
	reqSeq atomic.Int64 // X-Request-ID generator

	requests, uploads *obs.Counter

	// Streaming append counters: accepted batches, rows they carried, the
	// incremental-vs-rebuild path split, and cached analysts warm-promoted
	// across generations instead of invalidated.
	streamAppends, streamRows, streamIncremental, streamRebuilds, streamPromoted *obs.Counter

	// Durable-store counters: datasets paged in from disk, generations
	// replayed through the incremental append path vs rebuilt by
	// re-decode, and persisted-result-cache traffic. The replayed/rebuilt
	// split is the restart-warm proof: a healthy warm restart shows
	// replays > 0 with rebuilds == 0.
	storeLoads, storeReplayed, storeRebuilds, storeCachePersisted, storeCacheLoaded *obs.Counter

	requestErrors *obs.CounterVec   // by status class: 4xx, 5xx, canceled
	reqLatency    *obs.HistogramVec // by route pattern
	decode        *obs.Histogram
	queueWait     *obs.Histogram
	runLatency    *obs.Histogram

	// Overload and store-resilience families: admitted-inflight and shed
	// counts by request class, store retry/rejection counters, and the
	// circuit breaker's transition log.
	inflightGauge      *obs.GaugeVec   // by request class
	shedRequests       *obs.CounterVec // by request class
	storeRetries       *obs.Counter
	storeRejected      *obs.Counter
	breakerTransitions *obs.CounterVec // by state entered

	// OTLP export pipeline self-observation: traces dropped at the
	// bounded queue, retry attempts, successful exports and exhausted
	// failures by signal, and the current queue depth.
	otlpDropped    *obs.Counter
	otlpRetries    *obs.Counter
	otlpExports    *obs.CounterVec // by signal: traces, metrics
	otlpFailures   *obs.CounterVec // by signal: traces, metrics
	otlpQueueDepth *obs.Gauge

	searchRuns          *obs.CounterVec // by engine (SearchStats.Strategy, always "index")
	searchExpanded      *obs.Counter
	searchPruned        *obs.CounterVec // by reason: size, bound, dominated
	searchIntersections *obs.Counter
	searchCountOnly     *obs.Counter
	searchLazy          *obs.Counter
}

// newObsState builds the registry. Families registered earliest are the
// pre-existing scrape series, in their historical order; the registry owns
// the service's own counters, and the Func families read values another
// subsystem (jobs, caches, store, dataset registry, breaker) keeps under
// its own lock. The histogram and search families follow, then the
// runtime gauges.
func newObsState(s *Service, traceEntries int) *obsState {
	o := &obsState{reg: obs.NewRegistry(), traces: obs.NewTraceStore(traceEntries)}
	r := o.reg
	o.requests = r.NewCounter("rankfaird_requests_total", "HTTP requests served.")
	o.requestErrors = r.NewCounterVec("rankfaird_request_errors_total", "HTTP responses with status >= 400, by status class.", "class")
	o.uploads = r.NewCounter("rankfaird_dataset_uploads_total", "Accepted dataset uploads.")
	r.NewGaugeFunc("rankfaird_datasets", "Datasets currently registered.", func() int64 { return int64(s.registry.Len()) })
	o.streamAppends = r.NewCounter("rankfaird_stream_appends_total", "Accepted streaming append batches.")
	o.streamRows = r.NewCounter("rankfaird_stream_rows_total", "Rows ingested through streaming appends.")
	o.streamIncremental = r.NewCounter("rankfaird_stream_incremental_total", "Append batches applied incrementally (ranking merge-insert, copy-on-write posting maintenance).")
	o.streamRebuilds = r.NewCounter("rankfaird_stream_rebuild_total", "Append batches applied by full re-decode and rebuild (cost model or schema drift).")
	o.streamPromoted = r.NewCounter("rankfaird_stream_promoted_analysts_total", "Cached analysts warm-promoted to a new dataset generation.")
	r.NewGaugeFunc("rankfaird_store_datasets", "Dataset generation chains resident in the durable store (0 when no -data-dir).", func() int64 {
		if s.store == nil {
			return 0
		}
		return int64(s.store.Len())
	})
	r.NewCounterFunc("rankfaird_store_blob_writes_total", "Content blobs made durable (deduplicated rewrites excluded).", func() int64 { return s.storeStats().BlobWrites })
	r.NewCounterFunc("rankfaird_store_blob_write_bytes_total", "Bytes written into durable content blobs.", func() int64 { return s.storeStats().BlobWriteBytes })
	r.NewCounterFunc("rankfaird_store_blob_reads_total", "Content blobs read and hash-verified from the durable store.", func() int64 { return s.storeStats().BlobReads })
	r.NewCounterFunc("rankfaird_store_blob_read_bytes_total", "Bytes read from durable content blobs.", func() int64 { return s.storeStats().BlobReadBytes })
	o.storeLoads = r.NewCounter("rankfaird_store_dataset_loads_total", "Datasets paged in from the durable store (restart warm-up and post-LRU page-ins).")
	o.storeReplayed = r.NewCounter("rankfaird_store_replayed_generations_total", "Persisted generations replayed through the incremental append path during page-in.")
	o.storeRebuilds = r.NewCounter("rankfaird_store_replay_rebuilds_total", "Persisted generations applied by full re-decode during page-in (schema drift or undecodable batch).")
	o.storeCachePersisted = r.NewCounter("rankfaird_store_cache_persisted_total", "Computed audit results written through to the durable store.")
	o.storeCacheLoaded = r.NewCounter("rankfaird_store_cache_loaded_total", "Persisted audit results registered in the result cache at boot; bodies are read on first use.")
	r.NewCounterFunc("rankfaird_store_recovery_records_total", "Manifest records applied while recovering the durable store at boot.", func() int64 { return s.storeStats().RecoveredRecords })
	r.NewCounterFunc("rankfaird_store_recovery_dropped_total", "Manifest records discarded during recovery (torn tail, missing blob, broken chain).", func() int64 { return s.storeStats().DroppedRecords })
	o.storeRetries = r.NewCounter("rankfaird_store_retries_total", "Transient durable-store errors retried in place with jittered backoff.")
	o.storeRejected = r.NewCounter("rankfaird_store_write_rejections_total", "Durable-store writes refused because the circuit breaker was open.")
	o.breakerTransitions = r.NewCounterVec("rankfaird_store_breaker_transitions_total", "Store circuit breaker state transitions, by state entered.", "state")
	r.NewGaugeFunc("rankfaird_store_breaker_state", "Store circuit breaker state: 0 closed, 1 half-open, 2 open.", func() int64 { return int64(s.breaker.State()) })
	o.inflightGauge = r.NewGaugeVec("rankfaird_inflight_requests", "HTTP requests currently admitted, by request class (audit, append, read).", "class")
	o.shedRequests = r.NewCounterVec("rankfaird_requests_shed_total", "HTTP requests refused by admission control, by request class.", "class")
	r.NewCounterFunc("rankfaird_jobs_submitted_total", "Audit jobs accepted.", func() int64 { return s.jobs.Stats().Submitted })
	r.NewCounterFunc("rankfaird_jobs_completed_total", "Audit jobs finished successfully.", func() int64 { return s.jobs.Stats().Completed })
	r.NewCounterFunc("rankfaird_jobs_failed_total", "Audit jobs that errored.", func() int64 { return s.jobs.Stats().Failed })
	r.NewCounterFunc("rankfaird_jobs_canceled_total", "Audit jobs canceled.", func() int64 { return s.jobs.Stats().Canceled })
	r.NewCounterFunc("rankfaird_jobs_shed_total", "Audit jobs shed before running (queue wait exceeded the admission budget).", func() int64 { return s.jobs.Stats().Shed })
	r.NewCounterFunc("rankfaird_jobs_deadline_exceeded_total", "Audit jobs whose time budget expired mid-run.", func() int64 { return s.jobs.Stats().DeadlineExceeded })
	r.NewGaugeFunc("rankfaird_jobs_queued", "Audit jobs waiting for a worker.", func() int64 { return int64(s.jobs.Stats().Queued) })
	r.NewGaugeFunc("rankfaird_jobs_running", "Audit jobs currently running.", func() int64 { return int64(s.jobs.Stats().Running) })
	r.NewCounterFunc("rankfaird_cache_hits_total", "Audits served from the result cache (completed entries plus joined in-flight computations).", func() int64 {
		cs := s.cache.Stats()
		return cs.Hits + cs.Shared
	})
	r.NewCounterFunc("rankfaird_cache_entry_hits_total", "Audits served from a completed cache entry.", func() int64 { return s.cache.Stats().Hits })
	r.NewCounterFunc("rankfaird_cache_inflight_shared_total", "Audits that joined an identical in-flight computation.", func() int64 { return s.cache.Stats().Shared })
	r.NewCounterFunc("rankfaird_cache_misses_total", "Audits that ran the lattice search.", func() int64 { return s.cache.Stats().Misses })
	r.NewCounterFunc("rankfaird_cache_evictions_total", "Result cache LRU evictions.", func() int64 { return s.cache.Stats().Evictions })
	r.NewGaugeFunc("rankfaird_cache_entries", "Result cache entries resident.", func() int64 { return int64(s.cache.Stats().Entries) })
	r.NewCounterFunc("rankfaird_analyst_cache_hits_total", "Audits, repairs and explanations that reused a built analyst (completed entries plus joined in-flight builds).", func() int64 {
		as := s.AnalystCacheStats()
		return as.Hits + as.Shared
	})
	r.NewCounterFunc("rankfaird_analyst_cache_entry_hits_total", "Analyst reuses served from a completed cache entry.", func() int64 { return s.AnalystCacheStats().Hits })
	r.NewCounterFunc("rankfaird_analyst_cache_inflight_shared_total", "Analyst requests that joined an identical in-flight build.", func() int64 { return s.AnalystCacheStats().Shared })
	r.NewCounterFunc("rankfaird_analyst_cache_misses_total", "Analyst builds: dataset ranked and counting index constructed.", func() int64 { return s.AnalystCacheStats().Misses })
	r.NewCounterFunc("rankfaird_analyst_cache_evictions_total", "Analyst cache LRU evictions.", func() int64 { return s.AnalystCacheStats().Evictions })
	r.NewGaugeFunc("rankfaird_analyst_cache_entries", "Built analysts resident.", func() int64 { return int64(s.AnalystCacheStats().Entries) })
	o.otlpDropped = r.NewCounter("rankfaird_otlp_dropped_total", "Finished traces dropped because the OTLP export queue was full.")
	o.otlpRetries = r.NewCounter("rankfaird_otlp_retries_total", "OTLP export POSTs retried after a 429 or 5xx collector response.")
	o.otlpExports = r.NewCounterVec("rankfaird_otlp_exports_total", "OTLP payloads accepted by the collector, by signal (traces, metrics).", "signal")
	o.otlpFailures = r.NewCounterVec("rankfaird_otlp_export_failures_total", "OTLP payloads abandoned after exhausting retries or a permanent collector rejection, by signal.", "signal")
	o.otlpQueueDepth = r.NewGauge("rankfaird_otlp_queue_depth", "Finished traces waiting in the OTLP export queue.")
	o.reqLatency = r.NewHistogramVec("rankfaird_request_duration_seconds", "HTTP request latency by route pattern.", "route", nil)
	o.decode = r.NewHistogram("rankfaird_decode_seconds", "Dataset decode latency: CSV uploads and streaming append batches.", nil)
	o.queueWait = r.NewHistogram("rankfaird_job_queue_wait_seconds", "Time audit jobs spend queued before a worker picks them up.", nil)
	o.runLatency = r.NewHistogram("rankfaird_job_run_seconds", "Audit job run time, queue wait excluded.", nil)
	o.searchRuns = r.NewCounterVec("rankfaird_search_total", "Lattice searches computed (cache misses), by counting strategy.", "strategy")
	o.searchExpanded = r.NewCounter("rankfaird_search_nodes_expanded_total", "Lattice nodes expanded across all searches.")
	o.searchPruned = r.NewCounterVec("rankfaird_search_pruned_total", "Lattice nodes pruned without expansion, by reason.", "reason")
	o.searchIntersections = r.NewCounter("rankfaird_search_posting_intersections_total", "Column filters on the tree paths from the root posting lists to resumed frontier nodes: one per bound attribute beyond the first.")
	o.searchCountOnly = r.NewCounter("rankfaird_search_count_only_passes_total", "Child splits tallied by a count-only pass over the parent's rank list: every split, including those that then enter a child.")
	o.searchLazy = r.NewCounter("rankfaird_search_lazy_scatters_total", "Child splits in which a search entered at least one child, filtering its match list from the parent's.")
	r.NewGaugeFunc("rankfaird_analyst_index_bytes", "Estimated heap bytes held by cached analysts' counting indexes.", func() int64 {
		if s.analysts == nil {
			return 0
		}
		var total int64
		for _, kv := range s.analysts.EntriesPrefix("") {
			if e, ok := kv.Val.(*analystEntry); ok {
				total += e.analyst.IndexFootprint()
			}
		}
		return total
	})
	obs.RegisterRuntime(r, "rankfaird_")
	return o
}

// Handler returns the daemon's full route table as a stdlib handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetUpload)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleDatasetGet)
	mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleDatasetEvict)
	mux.HandleFunc("POST /v1/datasets/{id}/rows", s.handleDatasetAppend)
	mux.HandleFunc("POST /v1/audits", s.handleAuditSubmit)
	mux.HandleFunc("GET /v1/audits", s.handleAuditList)
	mux.HandleFunc("GET /v1/audits/{id}", s.handleAuditGet)
	mux.HandleFunc("DELETE /v1/audits/{id}", s.handleAuditCancel)
	mux.HandleFunc("GET /v1/audits/{id}/report", s.handleAuditReport)
	mux.HandleFunc("GET /v1/audits/{id}/trace", s.handleAuditTrace)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.count(mux)
}

// statusWriter records the response code for the request counters, and
// whether anything was written at all — a handler that went silent
// because its client disconnected writes nothing, which the error
// classifier must not read as a successful 200.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// traceIdentity is the W3C identity the count middleware resolves for a
// request: the trace ID (adopted from an incoming traceparent header, or
// derived from the X-Request-ID otherwise), the caller's span ID when one
// arrived on the wire, and the correlation request ID. It rides the
// request context into SubmitAuditCtx so the audit's exported spans
// stitch under the caller's trace.
type traceIdentity struct {
	RequestID  string
	TraceID    string
	ParentSpan string // incoming caller's span ID; "" when locally rooted
}

type traceIdentityKey struct{}

// traceIdentityFrom returns the identity the middleware attached, or the
// zero value for contexts that never passed through it (direct service
// calls in tests, CLI embedding).
func traceIdentityFrom(ctx context.Context) traceIdentity {
	id, _ := ctx.Value(traceIdentityKey{}).(traceIdentity)
	return id
}

// count wraps the mux with request accounting and admission control:
// total and per-class error counters, a per-route latency histogram, an
// X-Request-ID correlation header (honoring a client-supplied one), W3C
// trace identity (parsing an incoming traceparent, deriving one from the
// request ID otherwise, echoing it on every response — errors included),
// and a debug-level access log. The route label comes from mux.Handler,
// which reports the matched pattern without serving — bounding the label
// cardinality to the route table instead of the raw URL space. The route
// is resolved before serving so admission can shed by request class:
// over the inflight limit for a class, the request is refused with a
// fast 503 (code shed) and a Retry-After hint instead of being served.
func (s *Service) count(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.obs.requests.Inc()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%06d", s.obs.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		// A well-formed incoming traceparent wins outright — its IDs are
		// adopted verbatim so this request's spans stitch under the
		// caller's trace. Anything else (absent, malformed, version ff)
		// falls back to identity derived from the request ID, so every
		// response carries a valid traceparent either way. The span ID on
		// the response is derived per request: a proxy hop forwarding it
		// downstream parents cleanly even when one trace ID covers
		// several requests.
		traceID, parentSpan, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			traceID, parentSpan = obs.DeriveTraceID(reqID), ""
		}
		w.Header().Set("Traceparent", obs.FormatTraceparent(traceID, obs.DeriveSpanID(traceID, "req:"+reqID)))
		r = r.WithContext(context.WithValue(r.Context(), traceIdentityKey{},
			traceIdentity{RequestID: reqID, TraceID: traceID, ParentSpan: parentSpan}))
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		class := requestClass(route)
		if release, ok := s.admit(class); ok {
			mux.ServeHTTP(sw, r)
			release()
		} else {
			s.obs.shedRequests.With(class).Inc()
			sw.Header().Set("Retry-After", retryAfterValue(s.retryAfterHint()))
			writeAPIError(sw, http.StatusServiceUnavailable, CodeShed,
				fmt.Sprintf("server over capacity for %s requests, retry later", class))
		}
		elapsed := time.Since(start)
		s.obs.reqLatency.With(route).ObserveExemplar(elapsed.Seconds(), traceID)
		switch {
		case r.Context().Err() != nil && (!sw.wrote || sw.status >= 400):
			// The client hung up mid-request: whatever error status (or
			// silence) the handler produced never reached anyone, so
			// count the disconnect rather than blaming the server (5xx)
			// or the request (4xx). A response fully written before the
			// disconnect still counts as what it was.
			s.obs.requestErrors.With("canceled").Inc()
		case sw.status >= 500:
			s.obs.requestErrors.With("5xx").Inc()
		case sw.status >= 400:
			s.obs.requestErrors.With("4xx").Inc()
		}
		s.logger.Debug("http request",
			"id", reqID, "method", r.Method, "route", route, "status", sw.status,
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
	})
}

// writeJSON emits one JSON response. The value is marshaled before any
// header is written, so an encoding failure still produces a well-formed
// 500 envelope instead of a truncated 200 body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error())
		return
	}
	writeBody(w, status, append(buf, '\n'))
}

// writeBody emits an already encoded JSON response body as it is.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// APIError is the machine-readable error body every non-2xx response
// carries, wrapped as {"error": {...}}. Code is a stable identifier
// clients can switch on; Message is human prose and not part of the
// contract; RequestID echoes the response's X-Request-ID header so an
// error can be correlated with the server log line for its request.
type APIError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
	// TraceID echoes the response's traceparent trace ID so a failed
	// request is traceable end to end: the same ID keys the exported
	// OTLP spans and the exemplars on /metrics.
	TraceID string `json:"trace_id,omitempty"`
}

// errorEnvelope nests the error object under the "error" key.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// Stable API error codes. Not-found errors use "<resource>_not_found"
// (dataset_not_found, audit_not_found, trace_not_found), derived from the
// NotFoundError resource in writeErr.
const (
	CodeInvalidRequest = "invalid_request"
	CodeInvalidJSON    = "invalid_json"
	CodeEmptyBody      = "empty_body"
	CodeBodyTooLarge   = "body_too_large"
	CodeSchemaDrift    = "schema_drift"
	CodeQueueFull      = "queue_full"
	CodeStorageError   = "storage_error"
	CodeAuditNotReady  = "audit_not_ready"
	CodeAuditFailed    = "audit_failed"
	CodeAuditCanceled  = "audit_canceled"
	CodeInternal       = "internal"

	// Overload and degraded-mode codes. shed: the request was refused to
	// protect the server (admission cap or queue-wait budget) — retry
	// after the hinted backoff. deadline_exceeded: the audit's time
	// budget expired mid-search; the partial-work message reports how far
	// the lattice traversal got. store_unavailable: the durable store's
	// circuit breaker is open; writes are refused while reads keep
	// serving (degraded mode).
	CodeShed             = "shed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeStoreUnavailable = "store_unavailable"
)

// writeAPIError emits the uniform error envelope. The request ID and
// trace ID come from the response headers the count middleware set
// before routing, so every handler's errors correlate for free — the
// traceparent header itself also rides every error response.
func writeAPIError(w http.ResponseWriter, status int, code, message string) {
	traceID, _, _ := obs.ParseTraceparent(w.Header().Get("Traceparent"))
	writeJSON(w, status, errorEnvelope{Error: APIError{
		Code:      code,
		Message:   message,
		RequestID: w.Header().Get("X-Request-ID"),
		TraceID:   traceID,
	}})
}

// writeErr maps service errors onto HTTP statuses and stable codes.
func writeErr(w http.ResponseWriter, err error) {
	var nf *NotFoundError
	var br *BadRequestError
	var se *StorageError
	var ue *UnavailableError
	switch {
	case errors.As(err, &nf):
		writeAPIError(w, http.StatusNotFound, nf.Resource+"_not_found", err.Error())
	case errors.Is(err, dataset.ErrSchemaDrift):
		writeAPIError(w, http.StatusBadRequest, CodeSchemaDrift, err.Error())
	case errors.As(err, &br):
		writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
	case errors.Is(err, ErrQueueFull):
		writeAPIError(w, http.StatusServiceUnavailable, CodeQueueFull, err.Error())
	case errors.As(err, &ue):
		w.Header().Set("Retry-After", retryAfterValue(ue.RetryAfter))
		writeAPIError(w, http.StatusServiceUnavailable, ue.Code, err.Error())
	case errors.As(err, &se):
		writeAPIError(w, http.StatusInternalServerError, CodeStorageError, err.Error())
	default:
		writeAPIError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// readBody drains a size-capped request body, translating failures into
// envelope errors; ok reports whether the handler should proceed.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeAPIError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("%s exceeds the %d byte limit", what, mbe.Limit))
			return nil, false
		}
		writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("reading %s: %v", what, err))
		return nil, false
	}
	if len(raw) == 0 {
		writeAPIError(w, http.StatusBadRequest, CodeEmptyBody, "empty "+what)
		return nil, false
	}
	return raw, true
}

// handleDatasetUpload decodes a raw CSV body into the registry. Optional
// query parameters: name (label), categorical / numeric (comma-separated
// column lists forcing the kind), all_categorical=true, comma (single-rune
// field delimiter).
func (s *Service) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r, "upload")
	if !ok {
		return
	}
	q := r.URL.Query()
	opts := rankfair.CSVOptions{
		AllCategorical: q.Get("all_categorical") == "true",
	}
	if v := q.Get("categorical"); v != "" {
		opts.CategoricalColumns = strings.Split(v, ",")
	}
	if v := q.Get("numeric"); v != "" {
		opts.NumericColumns = strings.Split(v, ",")
	}
	if v := q.Get("comma"); v != "" {
		runes := []rune(v)
		if len(runes) != 1 {
			writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("comma must be a single rune, got %q", v))
			return
		}
		opts.Comma = runes[0]
	}

	// A seed upload addresses the dataset by its content hash, so if the
	// store already holds a chain for this ID — possibly advanced past the
	// seed by persisted appends — page it in first. registry.Add then
	// reports it resident, and the response carries the chain's real head
	// instead of forking a fresh v1 in memory that disagrees with disk.
	if s.store != nil {
		s.getDataset(idFromHash(HashCSV(raw)))
	}

	t0 := time.Now()
	info, created, err := s.registry.Add(q.Get("name"), raw, opts)
	s.obs.decode.Observe(time.Since(t0).Seconds())
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	if created {
		if err := s.persistSeed(info, raw, opts); err != nil {
			writeErr(w, err)
			return
		}
	}
	s.obs.uploads.Inc()
	writeJSON(w, http.StatusCreated, info)
}

// DatasetList is the GET /v1/datasets response: one page of dataset
// records, most recently created first (ID as tiebreak), with the cursor
// for the next page when one exists.
type DatasetList struct {
	Datasets      []DatasetInfo `json:"datasets"`
	NextPageToken string        `json:"next_page_token,omitempty"`
}

// AuditList is the GET /v1/audits response: one page of job snapshots,
// newest job ID first, with the cursor for the next page when one exists.
type AuditList struct {
	Audits        []JobView `json:"audits"`
	NextPageToken string    `json:"next_page_token,omitempty"`
}

// parseLimit reads the limit query parameter (default 100, capped at
// 1000); ok reports whether the handler should proceed.
func parseLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return defaultPageLimit, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("limit must be a positive integer, got %q", v))
		return 0, false
	}
	return min(n, maxPageLimit), true
}

const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// datasetCursor encodes a list position as an opaque page token. The
// token pins the (created, id) sort key of the last returned record, so
// pagination stays stable under concurrent inserts: new datasets sort
// before the cursor and simply don't appear mid-walk.
func datasetCursor(info DatasetInfo) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("%d~%s", info.Created.UnixNano(), info.ID)))
}

func decodeDatasetCursor(token string) (int64, string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return 0, "", err
	}
	nanos, id, ok := strings.Cut(string(raw), "~")
	if !ok {
		return 0, "", fmt.Errorf("malformed cursor")
	}
	n, err := strconv.ParseInt(nanos, 10, 64)
	if err != nil {
		return 0, "", err
	}
	return n, id, nil
}

func (s *Service) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	infos := s.listDatasets()
	if token := r.URL.Query().Get("page_token"); token != "" {
		nanos, id, err := decodeDatasetCursor(token)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid page_token")
			return
		}
		// Keep records strictly after the cursor in (Created desc, ID asc)
		// order.
		kept := infos[:0]
		for _, info := range infos {
			created := info.Created.UnixNano()
			if created < nanos || (created == nanos && info.ID > id) {
				kept = append(kept, info)
			}
		}
		infos = kept
	}
	resp := DatasetList{Datasets: infos}
	if len(infos) > limit {
		resp.Datasets = infos[:limit]
		resp.NextPageToken = datasetCursor(infos[limit-1])
	}
	if resp.Datasets == nil {
		resp.Datasets = []DatasetInfo{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, info, ok := s.getDataset(id)
	if !ok {
		writeErr(w, &NotFoundError{Resource: "dataset", ID: id})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetEvict deletes a dataset. With a durable store this is a
// tombstone, not a page-out: the append chain is dead on disk and the ID
// 404s after restart. Either tier having held the dataset makes the
// delete a 204 — the registry may have paged it out already, or the chain
// may predate this process.
func (s *Service) handleDatasetEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tombstoned := false
	if s.store != nil {
		err := s.storeWrite("tombstone", func() error {
			var terr error
			tombstoned, terr = s.store.Tombstone(id)
			return terr
		})
		if err != nil {
			writeErr(w, storageErr(err))
			return
		}
	}
	if !s.registry.Evict(id) && !tombstoned {
		writeErr(w, &NotFoundError{Resource: "dataset", ID: id})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDatasetAppend applies one row batch (CSV rows without a header,
// or JSON rows — see stream.ParseJSON for the accepted shapes) to a
// dataset, advancing it to a new versioned generation. The 201 names the
// created resource: the new generation, addressed by the dataset URL.
func (s *Service) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r, "batch")
	if !ok {
		return
	}
	resp, err := s.AppendRows(r.PathValue("id"), r.Header.Get("Content-Type"), raw)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/datasets/"+resp.Dataset.ID)
	writeJSON(w, http.StatusCreated, resp)
}

// handleAuditSubmit queues an audit. The time budget comes from the
// body's deadline_ms or, when that is absent, the X-Deadline-Ms header.
// ?wait=true blocks until the job reaches a terminal state (bounded by
// the request context) and returns the final snapshot; a client that
// disconnects while waiting cancels the job it was waiting on.
func (s *Service) handleAuditSubmit(w http.ResponseWriter, r *http.Request) {
	var req AuditRequest
	if err := decodeJSON(r, &req); err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidJSON, err.Error())
		return
	}
	if h := r.Header.Get("X-Deadline-Ms"); h != "" && req.DeadlineMS == 0 {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms < 0 {
			writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("X-Deadline-Ms must be a non-negative integer, got %q", h))
			return
		}
		req.DeadlineMS = ms
	}
	view, err := s.SubmitAuditCtx(r.Context(), req)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", retryAfterValue(s.retryAfterHint()))
		}
		writeErr(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		final, werr := s.jobs.Wait(r.Context(), view.ID)
		if werr != nil {
			if r.Context().Err() != nil {
				// The waiting client hung up: nobody is polling for this
				// job's result anymore, so stop paying for it.
				s.jobs.Cancel(view.ID)
				return
			}
			writeErr(w, werr)
			return
		}
		view = final
	}
	w.Header().Set("Location", "/v1/audits/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// handleAuditList pages through job snapshots, newest first. state=
// filters on job status (queued, running, done, failed, canceled); the
// page token is the last returned job ID — job IDs are zero-padded
// sequence numbers, so the ID ordering is the submission ordering.
func (s *Service) handleAuditList(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	state := r.URL.Query().Get("state")
	switch JobStatus(state) {
	case "", JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
	default:
		writeAPIError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("unknown state %q (want queued, running, done, failed or canceled)", state))
		return
	}
	token := r.URL.Query().Get("page_token")
	views := s.jobs.List()
	kept := views[:0]
	for _, v := range views {
		if state != "" && v.Status != JobStatus(state) {
			continue
		}
		if token != "" && v.ID >= token {
			continue // at or before the cursor in the ID-descending walk
		}
		kept = append(kept, v)
	}
	resp := AuditList{Audits: kept}
	if len(kept) > limit {
		resp.Audits = kept[:limit]
		resp.NextPageToken = kept[limit-1].ID
	}
	if resp.Audits == nil {
		resp.Audits = []JobView{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleAuditGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.jobs.Get(id)
	if !ok {
		writeErr(w, &NotFoundError{Resource: "audit", ID: id})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleAuditCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.jobs.Cancel(id) {
		writeErr(w, &NotFoundError{Resource: "audit", ID: id})
		return
	}
	view, _ := s.jobs.Get(id)
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleAuditReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	report, view, ok := s.jobs.Report(id)
	if !ok {
		writeErr(w, &NotFoundError{Resource: "audit", ID: id})
		return
	}
	switch view.Status {
	case JobDone:
		writeBody(w, http.StatusOK, report.Body)
	case JobFailed:
		// Overload failures keep their typed envelope: a shed job is a
		// retryable 503, an expired budget is a gateway timeout whose
		// message carries the partial-work progress.
		switch view.ErrorCode {
		case CodeShed:
			w.Header().Set("Retry-After", retryAfterValue(s.retryAfterHint()))
			writeAPIError(w, http.StatusServiceUnavailable, CodeShed, "audit shed: "+view.Error)
		case CodeDeadlineExceeded:
			writeAPIError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "audit deadline exceeded: "+view.Error)
		default:
			writeAPIError(w, http.StatusConflict, CodeAuditFailed, "audit failed: "+view.Error)
		}
	case JobCanceled:
		writeAPIError(w, http.StatusConflict, CodeAuditCanceled, "audit canceled")
	default:
		// The poll-again hint tracks the observed median run time instead
		// of a hardcoded second, so clients of slow corpora back off
		// proportionally.
		w.Header().Set("Retry-After", retryAfterValue(s.notReadyHint()))
		writeAPIError(w, http.StatusConflict, CodeAuditNotReady, fmt.Sprintf("audit %s is %s", id, view.Status))
	}
}

func (s *Service) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req RepairRequest
	if err := decodeJSON(r, &req); err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidJSON, err.Error())
		return
	}
	resp, err := s.Repair(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if err := decodeJSON(r, &req); err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidJSON, err.Error())
		return
	}
	resp, err := s.Explain(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness plus the degraded-mode signal: when the
// store circuit breaker is not closed, status becomes "degraded" (still
// 200 — the process serves reads and should not be restarted) and the
// store field names the breaker state.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, breaker := "ok", ""
	if s.store != nil {
		breaker = breakerStateName(s.breaker.State())
		if breaker != "closed" {
			status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
		Store    string `json:"store,omitempty"`
	}{Status: status, Datasets: s.registry.Len(), Store: breaker})
}

// handleMetrics renders the registry in the Prometheus text exposition
// format (no client library: obs.Registry writes the format directly).
// A scraper that offers application/openmetrics-text in Accept gets the
// OpenMetrics 1.0 rendering instead — same families, same values, plus
// trace-ID exemplars on histogram buckets and the # EOF terminator. The
// default 0.0.4 body is byte-stable: existing scrape configs see exactly
// the pre-exemplar output.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		_, _ = s.obs.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.obs.reg.WriteTo(w)
}

// handleAuditTrace serves the span tree of a finished audit from the
// bounded trace ring. Traces are recorded when a job reaches a terminal
// state, so a queued or running audit 404s until it finishes; very old
// audits 404 again once the ring evicts them.
func (s *Service) handleAuditTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.obs.traces.Get(id)
	if !ok {
		writeErr(w, &NotFoundError{Resource: "trace", ID: id})
		return
	}
	writeJSON(w, http.StatusOK, tr.Tree())
}

// decodeJSON strictly decodes one JSON body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}
